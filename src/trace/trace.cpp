#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

namespace alpha::trace {

namespace {

struct KindName {
  EventKind kind;
  const char* name;
};
constexpr KindName kKindNames[] = {
    {EventKind::kNone, "none"},
    {EventKind::kPacketSent, "packet_sent"},
    {EventKind::kPacketAccepted, "packet_accepted"},
    {EventKind::kPacketDropped, "packet_dropped"},
    {EventKind::kRetransmit, "retransmit"},
    {EventKind::kHandshakeStart, "handshake_start"},
    {EventKind::kEstablished, "established"},
    {EventKind::kRekeyStart, "rekey_start"},
    {EventKind::kRekeyFinish, "rekey_finish"},
    {EventKind::kAssocFailed, "assoc_failed"},
    {EventKind::kRoundFailed, "round_failed"},
    {EventKind::kDelivered, "delivered"},
    {EventKind::kRelayForwarded, "relay_forwarded"},
    {EventKind::kNetDelivered, "net_delivered"},
    {EventKind::kNetDropped, "net_dropped"},
    {EventKind::kNetDuplicated, "net_duplicated"},
    {EventKind::kTransportSent, "transport_sent"},
    {EventKind::kTransportReceived, "transport_received"},
    {EventKind::kRoundStart, "round_start"},
    {EventKind::kHealthDegraded, "health_degraded"},
    {EventKind::kHealthRecovered, "health_recovered"},
    {EventKind::kAdaptDecision, "adapt_decision"},
};

struct ReasonName {
  DropReason reason;
  const char* name;
};
constexpr ReasonName kReasonNames[] = {
    {DropReason::kNone, "none"},
    {DropReason::kDecodeError, "decode_error"},
    {DropReason::kBadMac, "bad_mac"},
    {DropReason::kStaleChainIndex, "stale_chain_index"},
    {DropReason::kDuplicateS1, "duplicate_s1"},
    {DropReason::kDuplicateS2, "duplicate_s2"},
    {DropReason::kDuplicateHandshake, "duplicate_handshake"},
    {DropReason::kReplay, "replay"},
    {DropReason::kBudgetExhausted, "budget_exhausted"},
    {DropReason::kUnsolicited, "unsolicited"},
    {DropReason::kMalformedHeader, "malformed_header"},
    {DropReason::kDemuxMiss, "demux_miss"},
    {DropReason::kChainExhausted, "chain_exhausted"},
    {DropReason::kStaleRound, "stale_round"},
    {DropReason::kLost, "lost"},
    {DropReason::kLinkDown, "link_down"},
    {DropReason::kOversize, "oversize"},
    {DropReason::kNoLink, "no_link"},
    {DropReason::kChaosCorrupted, "chaos_corrupted"},
};

// wire::PacketType values (kept in sync with wire/packets.hpp; trace stays
// dependency-free so it can sit below net in the link order).
constexpr const char* kPacketTypeNames[] = {"-",  "s1",  "a1", "s2",
                                            "a2", "hs1", "hs2"};

}  // namespace

Ring::Ring(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 2));
  buf_.resize(cap);
  mask_ = cap - 1;
}

const char* to_string(EventKind kind) noexcept {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

const char* to_string(DropReason reason) noexcept {
  for (const auto& entry : kReasonNames) {
    if (entry.reason == reason) return entry.name;
  }
  return "unknown";
}

const char* packet_type_name(std::uint8_t type) noexcept {
  if (type >= std::size(kPacketTypeNames)) return "-";
  return kPacketTypeNames[type];
}

}  // namespace alpha::trace
