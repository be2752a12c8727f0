// Typed protocol event tracing.
//
// Always compiled, off by default: every hook in the engines funnels through
// emit(), which is a single pointer check until a Ring is installed. Events
// are fixed-size trivially-copyable PODs recorded into a preallocated
// power-of-two ring buffer (overwrite-oldest), so enabling tracing never
// allocates on the per-packet hot path and the PR 3 zero-allocation
// guarantees hold with tracing on.
//
// The taxonomy makes every packet's fate attributable: the network layer
// emits exactly one terminal event per send() (kNetDelivered or kNetDropped,
// plus one kNetDuplicated per injected extra copy), and the protocol layer
// emits accept/drop events with a DropReason explaining why a frame died.
//
// Engines without a clock parameter (VerifierEngine, RelayEngine) stamp
// events from a thread-local context set by the node runtime at its entry
// points (ScopedContext); the simulated network stamps its own events with
// simulator time. The sink itself is thread-local too: every thread traces
// into its own ring (or none), so the sharded multi-core runtime needs no
// synchronization on the emit path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace alpha::trace {

enum class EventKind : std::uint8_t {
  kNone = 0,
  // Protocol layer (hosts, engines, relays).
  kPacketSent = 1,       // detail: batch size / resend flag, site-specific
  kPacketAccepted = 2,   // packet passed every check at its consumer
  kPacketDropped = 3,    // packet died; reason says why
  kRetransmit = 4,       // detail = attempt count so far
  kHandshakeStart = 5,   // initiator emitted its first HS1
  kEstablished = 6,      // association (re-)established
  kRekeyStart = 7,       // chain rotation handshake began
  kRekeyFinish = 8,      // fresh chains active
  kAssocFailed = 9,      // retransmit budget exhausted (reason set)
  kRoundFailed = 10,     // signer round abandoned (reason set, detail = msgs)
  kDelivered = 11,       // verifier delivered an authenticated message
  kRelayForwarded = 12,  // relay vetted and forwarded a frame
  // Network layer (simulated links): terminal fate of each send().
  kNetDelivered = 13,    // reason kChaosCorrupted when bits were flipped
  kNetDropped = 14,      // reason kLost/kLinkDown/kOversize/kNoLink
  kNetDuplicated = 15,   // extra injected copy (second delivery)
  // Real-socket transport (no network model underneath).
  kTransportSent = 16,
  kTransportReceived = 17,
  // Span layer (PR 5).
  kRoundStart = 18,       // signer opened a round; detail packs queue/crypto
  // Health detector state transitions (detail = HealthReason bitmask).
  kHealthDegraded = 19,
  kHealthRecovered = 20,
  // Adaptive controller evaluated its policy (one event per evaluation,
  // switches and holds alike, so the decision log is replayable post-hoc).
  // detail packs the input snapshot + verdict: see pack_adapt_detail.
  kAdaptDecision = 21,
};

enum class DropReason : std::uint8_t {
  kNone = 0,
  // Protocol-layer reasons.
  kDecodeError = 1,         // full wire decode failed (corruption/garbage)
  kBadMac = 2,              // MAC / Merkle / pre-ack / signature mismatch
  kStaleChainIndex = 3,     // chain element not acceptable at that index
  kDuplicateS1 = 4,         // S1 retransmission answered from cache
  kDuplicateS2 = 5,         // S2 for an already-delivered message
  kDuplicateHandshake = 6,  // handshake with the current (already seen) seq
  kReplay = 7,              // handshake counter went backwards
  kBudgetExhausted = 8,     // max_retries spent
  kUnsolicited = 9,         // no context to verify against (flood filter)
  kMalformedHeader = 10,    // assoc-id peek failed at the node demux
  kDemuxMiss = 11,          // no association, relay or accept rule matched
  kChainExhausted = 12,     // hash chain cannot cover another round
  kStaleRound = 13,         // late packet for a finished/unknown round
  // Network-layer fates.
  kLost = 14,               // random loss (Bernoulli or burst)
  kLinkDown = 15,           // swallowed by a partition
  kOversize = 16,           // exceeded the MTU
  kNoLink = 17,             // no such link
  kChaosCorrupted = 18,     // delivered, but with bits flipped in flight
};

/// Number of DropReason values (dense from 0); sized for per-reason counter
/// arrays like core::RelayStats::dropped_by_reason.
inline constexpr std::size_t kDropReasonCount =
    static_cast<std::size_t>(DropReason::kChaosCorrupted) + 1;

/// One traced event. 32 bytes, trivially copyable: record() is a masked
/// index increment plus a struct copy.
struct Event {
  std::uint64_t time_us = 0;
  std::uint64_t detail = 0;       // kind-specific payload (see taxonomy)
  std::uint32_t assoc_id = 0;
  std::uint32_t seq = 0;
  EventKind kind = EventKind::kNone;
  DropReason reason = DropReason::kNone;
  std::uint8_t packet_type = 0;   // wire::PacketType value, 0 = n/a
  std::uint8_t origin = 0;        // node id (set via ScopedContext)
  std::uint32_t pad_ = 0;
};
static_assert(std::is_trivially_copyable_v<Event>, "hot-path POD");
static_assert(sizeof(Event) == 32, "keep the record cheap and cache-friendly");

/// Fixed-capacity overwrite-oldest event buffer. Capacity rounds up to a
/// power of two; all storage is allocated once in the constructor.
class Ring {
 public:
  explicit Ring(std::size_t capacity);

  void record(const Event& e) noexcept {
    buf_[static_cast<std::size_t>(head_ & mask_)] = e;
    ++head_;
  }

  std::size_t capacity() const noexcept { return buf_.size(); }
  /// Events ever recorded (monotonic; exceeds capacity() after wrap).
  std::uint64_t total() const noexcept { return head_; }
  /// Events currently retained.
  std::size_t size() const noexcept {
    return head_ < buf_.size() ? static_cast<std::size_t>(head_) : buf_.size();
  }
  /// i-th retained event, oldest first (0 <= i < size()).
  const Event& at(std::size_t i) const noexcept {
    const Event& e = buf_[static_cast<std::size_t>((first_index() + i) & mask_)];
    return e;
  }
  /// Absolute index of the oldest retained event (== total() - size()).
  std::uint64_t first_index() const noexcept {
    return head_ < buf_.size() ? 0 : head_ - buf_.size();
  }
  /// Event by absolute index; valid for first_index() <= i < total().
  /// Lets consumers keep a cursor across ring wraps (see spans::SpanBuilder).
  const Event& at_absolute(std::uint64_t i) const noexcept {
    return buf_[static_cast<std::size_t>(i & mask_)];
  }
  /// Events lost to ring wrap (monotonic; 0 until the first overwrite).
  /// Derived, so the hot-path record() stays an increment + struct copy.
  std::uint64_t dropped() const noexcept {
    return head_ > buf_.size() ? head_ - buf_.size() : 0;
  }
  /// Bumped on every clear(). Cursor-based consumers (SpanBuilder, the
  /// flight recorder) compare generations to tell "ring was cleared and
  /// refilled past my cursor" apart from "new events arrived": absolute
  /// indices are only comparable within one generation.
  std::uint64_t generation() const noexcept { return generation_; }
  void clear() noexcept {
    head_ = 0;
    ++generation_;
  }

 private:
  std::vector<Event> buf_;
  std::uint64_t mask_;
  std::uint64_t head_ = 0;
  std::uint64_t generation_ = 0;
};

namespace detail {
struct Context {
  std::uint8_t origin = 0;
  std::uint64_t time_us = 0;
};
// Thread-local by design: the sharded runtime (core/sharded_node.hpp) runs
// one shard per worker thread, and each worker installs its own ring at
// thread start -- emit() stays a plain pointer check with no atomics, and
// two shards never contend on (or race over) a shared sink. Single-threaded
// programs see no difference: the main thread installs one ring as before.
inline thread_local Ring* g_ring = nullptr;
inline thread_local Context g_ctx{};
}  // namespace detail

/// Installs the calling thread's sink (nullptr disables tracing on it).
inline void install(Ring* ring) noexcept { detail::g_ring = ring; }
inline Ring* sink() noexcept { return detail::g_ring; }
inline bool enabled() noexcept { return detail::g_ring != nullptr; }

/// Time stamped by the innermost ScopedContext on this thread (the node
/// runtime's entry-point timestamp). 0 outside any scoped entry point.
inline std::uint64_t current_time_us() noexcept {
  return detail::g_ctx.time_us;
}

/// Stamps origin + time for every emit() in scope. The node runtime opens
/// one at each entry point (inbound frame, wakeup, submit, start) so engines
/// without a now_us parameter still produce correctly-timed events.
class ScopedContext {
 public:
  ScopedContext(std::uint8_t origin, std::uint64_t time_us) noexcept
      : prev_(detail::g_ctx) {
    detail::g_ctx = detail::Context{origin, time_us};
  }
  ~ScopedContext() { detail::g_ctx = prev_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  detail::Context prev_;
};

/// Records a fully-built event (network layer stamps its own time/origin).
inline void emit(const Event& e) noexcept {
  if (Ring* ring = detail::g_ring) ring->record(e);
}

/// Records a protocol-layer event stamped from the ambient ScopedContext.
inline void emit(EventKind kind, std::uint32_t assoc_id, std::uint32_t seq,
                 std::uint8_t packet_type,
                 DropReason reason = DropReason::kNone,
                 std::uint64_t detail_value = 0) noexcept {
  Ring* ring = detail::g_ring;
  if (ring == nullptr) return;
  Event e;
  e.time_us = detail::g_ctx.time_us;
  e.detail = detail_value;
  e.assoc_id = assoc_id;
  e.seq = seq;
  e.kind = kind;
  e.reason = reason;
  e.packet_type = packet_type;
  e.origin = detail::g_ctx.origin;
  ring->record(e);
}

/// Packs (from, to, size) into Event::detail for network-layer events:
/// from in bits 40..63, to in bits 24..39, size (clamped) in bits 0..23.
constexpr std::uint64_t pack_net_detail(std::uint32_t from, std::uint32_t to,
                                        std::size_t size) noexcept {
  return (static_cast<std::uint64_t>(from & 0xFFFFFFu) << 40) |
         (static_cast<std::uint64_t>(to & 0xFFFFu) << 24) |
         static_cast<std::uint64_t>(size > 0xFFFFFFu ? 0xFFFFFFu : size);
}
constexpr std::uint32_t net_detail_from(std::uint64_t detail) noexcept {
  return static_cast<std::uint32_t>(detail >> 40);
}
constexpr std::uint32_t net_detail_to(std::uint64_t detail) noexcept {
  return static_cast<std::uint32_t>((detail >> 24) & 0xFFFFu);
}
constexpr std::size_t net_detail_size(std::uint64_t detail) noexcept {
  return static_cast<std::size_t>(detail & 0xFFFFFFu);
}

constexpr bool is_net_kind(EventKind kind) noexcept {
  return kind == EventKind::kNetDelivered || kind == EventKind::kNetDropped ||
         kind == EventKind::kNetDuplicated;
}

/// Packs (queue wait, crypto time) into Event::detail for kRoundStart:
/// queueing delay in µs (bits 32..63) and signer crypto wall time in ns
/// (bits 0..31), both saturating. Crypto time is only measured when tracing
/// is enabled, so the untraced hot path never touches a real clock.
constexpr std::uint64_t pack_round_detail(std::uint64_t queue_us,
                                          std::uint64_t crypto_ns) noexcept {
  if (queue_us > 0xFFFFFFFFull) queue_us = 0xFFFFFFFFull;
  if (crypto_ns > 0xFFFFFFFFull) crypto_ns = 0xFFFFFFFFull;
  return (queue_us << 32) | crypto_ns;
}
constexpr std::uint64_t round_detail_queue_us(std::uint64_t detail) noexcept {
  return detail >> 32;
}
constexpr std::uint64_t round_detail_crypto_ns(std::uint64_t detail) noexcept {
  return detail & 0xFFFFFFFFull;
}

/// Packs an adaptive-controller decision into Event::detail for
/// kAdaptDecision: the (mode, batch) transition plus the signal snapshot
/// that justified it, so `alpha_inspect --adapt` can explain the policy
/// from the trace alone. Layout (low to high):
///   bits  0..2   target mode (wire::Mode value, 1..4)
///   bits  3..15  target batch size (13 bits, saturating)
///   bits 16..18  previous mode
///   bits 19..31  previous batch size
///   bits 32..39  decision reason (core::AdaptReason value)
///   bits 40..49  observed loss rate in per-mille (0..1000, saturating)
///   bits 50..57  retransmit-budget pressure in percent (0..100)
///   bits 58..59  health state (trace::HealthState value)
constexpr std::uint64_t pack_adapt_detail(std::uint8_t to_mode,
                                          std::uint32_t to_batch,
                                          std::uint8_t from_mode,
                                          std::uint32_t from_batch,
                                          std::uint8_t reason,
                                          std::uint32_t loss_permille,
                                          std::uint32_t budget_percent,
                                          std::uint8_t health) noexcept {
  if (to_batch > 0x1FFFu) to_batch = 0x1FFFu;
  if (from_batch > 0x1FFFu) from_batch = 0x1FFFu;
  if (loss_permille > 1000u) loss_permille = 1000u;
  if (budget_percent > 100u) budget_percent = 100u;
  return (static_cast<std::uint64_t>(to_mode & 0x7u)) |
         (static_cast<std::uint64_t>(to_batch) << 3) |
         (static_cast<std::uint64_t>(from_mode & 0x7u) << 16) |
         (static_cast<std::uint64_t>(from_batch) << 19) |
         (static_cast<std::uint64_t>(reason) << 32) |
         (static_cast<std::uint64_t>(loss_permille) << 40) |
         (static_cast<std::uint64_t>(budget_percent) << 50) |
         (static_cast<std::uint64_t>(health & 0x3u) << 58);
}
constexpr std::uint8_t adapt_detail_to_mode(std::uint64_t d) noexcept {
  return static_cast<std::uint8_t>(d & 0x7u);
}
constexpr std::uint32_t adapt_detail_to_batch(std::uint64_t d) noexcept {
  return static_cast<std::uint32_t>((d >> 3) & 0x1FFFu);
}
constexpr std::uint8_t adapt_detail_from_mode(std::uint64_t d) noexcept {
  return static_cast<std::uint8_t>((d >> 16) & 0x7u);
}
constexpr std::uint32_t adapt_detail_from_batch(std::uint64_t d) noexcept {
  return static_cast<std::uint32_t>((d >> 19) & 0x1FFFu);
}
constexpr std::uint8_t adapt_detail_reason(std::uint64_t d) noexcept {
  return static_cast<std::uint8_t>((d >> 32) & 0xFFu);
}
constexpr std::uint32_t adapt_detail_loss_permille(std::uint64_t d) noexcept {
  return static_cast<std::uint32_t>((d >> 40) & 0x3FFu);
}
constexpr std::uint32_t adapt_detail_budget_percent(std::uint64_t d) noexcept {
  return static_cast<std::uint32_t>((d >> 50) & 0xFFu);
}
constexpr std::uint8_t adapt_detail_health(std::uint64_t d) noexcept {
  return static_cast<std::uint8_t>((d >> 58) & 0x3u);
}

/// Stable names for kinds, reasons and wire packet types: the one rendering
/// contract of `alpha_inspect` ("unknown" / "-" for out-of-range values).
const char* to_string(EventKind kind) noexcept;
const char* to_string(DropReason reason) noexcept;
/// Wire packet-type label ("hs1", "s1", ...); "-" for 0/unknown.
const char* packet_type_name(std::uint8_t type) noexcept;

}  // namespace alpha::trace
