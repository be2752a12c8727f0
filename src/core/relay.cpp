#include "core/relay.hpp"

#include <chrono>

#include "core/identity.hpp"
#include "crypto/counter.hpp"
#include "trace/prof.hpp"

namespace alpha::core {

namespace {
constexpr std::size_t kMaxRoundsPerFlow = 8;

// Relay-side trace events identify the frame by peeking the header; the
// engine dispatches on the decoded packet, but drop sites share one helper.
void emit_relay_event(trace::EventKind kind, crypto::ByteView frame,
                      trace::DropReason reason) {
  if (!trace::enabled()) return;
  std::uint32_t assoc = 0;
  std::uint32_t seq = 0;
  std::uint8_t type = 0;
  if (const auto hdr = wire::peek_header(frame)) {
    seq = hdr->seq;
    assoc = hdr->assoc_id;
  }
  if (const auto t = wire::peek_type(frame)) {
    type = static_cast<std::uint8_t>(*t);
  }
  trace::emit(kind, assoc, seq, type, reason, frame.size());
}
}  // namespace

RelayEngine::RelayEngine(Config config, Options options, Callbacks callbacks)
    : config_(config), options_(options), callbacks_(std::move(callbacks)) {}

RelayDecision RelayEngine::forward(Direction dir, crypto::ByteView frame) {
  ++stats_.forwarded;
  emit_relay_event(trace::EventKind::kRelayForwarded, frame,
                   trace::DropReason::kNone);
  if (callbacks_.forward) {
    callbacks_.forward(dir, frame);
  }
  return RelayDecision::kForwarded;
}

RelayDecision RelayEngine::drop(RelayDecision decision, crypto::ByteView frame,
                                trace::DropReason reason) {
  if (decision == RelayDecision::kDroppedUnsolicited) {
    ++stats_.dropped_unsolicited;
  } else {
    ++stats_.dropped_invalid;
  }
  ++stats_.dropped_by_reason[static_cast<std::size_t>(reason)];
  emit_relay_event(trace::EventKind::kPacketDropped, frame, reason);
  return decision;
}

RelayDecision RelayEngine::no_handshake(Direction dir,
                                        crypto::ByteView frame) {
  return options_.require_handshake
             ? drop(RelayDecision::kDroppedUnsolicited, frame,
                    trace::DropReason::kUnsolicited)
             : forward(dir, frame);
}

RelayDecision RelayEngine::on_frame(Direction dir, crypto::ByteView frame) {
  const trace::ScopedStage prof_stage(trace::Stage::kRelayVerify);
  const auto t0 = std::chrono::steady_clock::now();
  const RelayDecision decision = decide(dir, frame);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  stats_.verify_batch_ns.record(static_cast<std::uint64_t>(ns));
  ++stats_.verify_batch_frames;
  return decision;
}

RelayDecision RelayEngine::decide(Direction dir, crypto::ByteView frame) {
  const auto malformed = [&] {
    return drop(RelayDecision::kDroppedMalformed, frame,
                trace::DropReason::kDecodeError);
  };
  if (wire::peek_type(frame) == wire::PacketType::kS2) {
    // Steady-state path: zero-copy parse, no heap.
    const auto s2 = wire::parse_s2(frame);
    return s2.has_value() ? handle_s2(dir, *s2, frame) : malformed();
  }
  const auto packet = wire::decode(frame);
  if (!packet.has_value()) return malformed();
  return std::visit(
      [&](const auto& p) -> RelayDecision {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, wire::HandshakePacket>) {
          return handle_handshake(dir, p, frame);
        } else if constexpr (std::is_same_v<T, wire::S1Packet>) {
          return handle_s1(dir, p, frame);
        } else if constexpr (std::is_same_v<T, wire::A1Packet>) {
          return handle_a1(dir, p, frame);
        } else if constexpr (std::is_same_v<T, wire::A2Packet>) {
          return handle_a2(dir, p, frame);
        } else {
          // S2 frames were routed to parse_s2 by their type byte above.
          return malformed();
        }
      },
      *packet);
}

RelayDecision RelayEngine::handle_handshake(Direction dir,
                                            const wire::HandshakePacket& hs,
                                            crypto::ByteView frame) {
  if (options_.verify_handshake_signatures &&
      hs.sig_alg != wire::SigAlg::kNone) {
    const auto peer = PeerIdentity::decode(hs.sig_alg, hs.public_key);
    if (!peer.has_value() ||
        !peer->verify(hs.algo, hs.signed_payload(), hs.signature)) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kBadMac);
    }
  }

  AssocState& assoc = assocs_[hs.hdr.assoc_id];
  assoc.algo = hs.algo;
  assoc.handshake_seen = true;

  // The sender of this handshake signs on the flow that travels in `dir`
  // (its signature chain) and acknowledges on the opposite flow (its
  // acknowledgment chain).
  FlowState& own_flow = assoc.flows[static_cast<int>(dir)];
  FlowState& rev_flow = assoc.flows[static_cast<int>(opposite(dir))];
  // Ignore exact duplicates (handshake retransmissions): resetting the
  // verifiers to an anchor whose elements were already disclosed would
  // re-admit replayed packets.
  if (own_flow.sig.has_value() && own_flow.sig_anchor.ct_equals(hs.sig_anchor)) {
    return forward(dir, frame);
  }
  own_flow.sig.emplace(hs.algo, hashchain::ChainTagging::kRoleBound,
                       hs.sig_anchor, hs.sig_anchor_index, config_.max_gap);
  own_flow.sig_anchor = hs.sig_anchor;
  rev_flow.ack.emplace(hs.algo, hashchain::ChainTagging::kRoleBound,
                       hs.ack_anchor, hs.ack_anchor_index, config_.max_gap);
  // New chains mean a fresh round-sequence space (rekeying): stale per-round
  // state from the previous generation must not shadow new rounds.
  own_flow.rounds.clear();
  return forward(dir, frame);
}

RelayDecision RelayEngine::handle_s1(Direction dir, const wire::S1Packet& s1,
                                     crypto::ByteView frame) {
  const auto it = assocs_.find(s1.hdr.assoc_id);
  if (it == assocs_.end() || !it->second.flows[static_cast<int>(dir)].sig) {
    return no_handshake(dir, frame);
  }
  AssocState& assoc = it->second;
  FlowState& flow = assoc.flows[static_cast<int>(dir)];

  if (!S1Commitment::within_bound(s1)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kDecodeError);
  }

  if (flow.rounds.contains(s1.hdr.seq)) {
    // Retransmission of a round we already vetted: pass it along.
    return forward(dir, frame);
  }

  if (!authenticate_announcement(*flow.sig, s1.chain_element, s1.chain_index,
                                 stats_.hashes)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }

  flow.rounds.emplace(s1.hdr.seq, RelayRound(s1));
  while (flow.rounds.size() > kMaxRoundsPerFlow) {
    flow.rounds.erase(flow.rounds.begin());
  }
  return forward(dir, frame);
}

RelayDecision RelayEngine::handle_a1(Direction dir, const wire::A1Packet& a1,
                                     crypto::ByteView frame) {
  // An A1 travels against its flow: it acknowledges traffic flowing in the
  // opposite direction.
  const Direction flow_dir = opposite(dir);
  const auto it = assocs_.find(a1.hdr.assoc_id);
  if (it == assocs_.end() ||
      !it->second.flows[static_cast<int>(flow_dir)].ack) {
    return no_handshake(dir, frame);
  }
  FlowState& flow = it->second.flows[static_cast<int>(flow_dir)];

  const auto round_it = flow.rounds.find(a1.hdr.seq);
  if (round_it == flow.rounds.end()) {
    // A1 without an observed S1: the verifier answered something we did not
    // vet; treat as unsolicited.
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }
  RelayRound& round = round_it->second;

  if (!hashchain::is_s1_index(a1.ack_chain_index)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }
  if (round.a1_seen) {
    // One A1 per round. A copy of the accepted one (lost past this hop and
    // resent) is forwarded and leaves the commitments as they are; any other
    // A1 is dropped. An older A1 relabelled to this round would otherwise
    // replace them and get the round's genuine A2s dropped.
    if (!round.a1.repeated_by(a1, *flow.ack, stats_.hashes)) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kStaleChainIndex);
    }
    return forward(dir, frame);
  }
  if (!authenticate_announcement(*flow.ack, a1.ack_element,
                                 a1.ack_chain_index, stats_.hashes)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }

  if (a1.scheme == wire::AckScheme::kPreAck &&
      a1.pre_acks.size() != round.s1.message_count()) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kDecodeError);
  }

  round.a1_seen = true;
  round.a1 = A1Commitment(a1);
  return forward(dir, frame);
}

RelayDecision RelayEngine::handle_s2(Direction dir, const wire::S2View& s2,
                                     crypto::ByteView frame) {
  const auto it = assocs_.find(s2.hdr.assoc_id);
  if (it == assocs_.end() || !it->second.flows[static_cast<int>(dir)].sig) {
    return no_handshake(dir, frame);
  }
  FlowState& flow = it->second.flows[static_cast<int>(dir)];

  const auto round_it = flow.rounds.find(s2.hdr.seq);
  if (round_it == flow.rounds.end()) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }
  RelayRound& round = round_it->second;

  // Flood mitigation: no willingness signal from the receiver, no delivery.
  if (!round.a1_seen) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }

  if (!round.s1.matches(s2)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }
  if (const auto reason =
          round.s1.authenticate_key(s2, *flow.sig, stats_.hashes);
      reason != trace::DropReason::kNone) {
    return drop(RelayDecision::kDroppedInvalid, frame, reason);
  }
  if (!round.s1.verify_payload(s2, config_.mac_kind, it->second.algo,
                               path_scratch_, stats_.hashes)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kBadMac);
  }

  ++stats_.messages_extracted;
  if (callbacks_.on_extracted) {
    callbacks_.on_extracted(s2.hdr.assoc_id, s2.hdr.seq, s2.msg_index,
                            s2.payload);
  }
  return forward(dir, frame);
}

RelayDecision RelayEngine::handle_a2(Direction dir, const wire::A2Packet& a2,
                                     crypto::ByteView frame) {
  const Direction flow_dir = opposite(dir);
  const auto it = assocs_.find(a2.hdr.assoc_id);
  if (it == assocs_.end() ||
      !it->second.flows[static_cast<int>(flow_dir)].ack) {
    return no_handshake(dir, frame);
  }
  FlowState& flow = it->second.flows[static_cast<int>(flow_dir)];

  const auto round_it = flow.rounds.find(a2.hdr.seq);
  if (round_it == flow.rounds.end() || !round_it->second.a1_seen) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }
  RelayRound& round = round_it->second;

  if (a2.scheme != round.a1.scheme ||
      a2.ack_chain_index + 1 != round.a1.a1_ack_index ||
      a2.msg_index >= round.s1.message_count()) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }

  if (const auto reason = authenticate_disclosure(
          round.ack_disclosed, a2.disclosed_ack_element, a2.ack_chain_index,
          *flow.ack, stats_.hashes);
      reason != trace::DropReason::kNone) {
    return drop(RelayDecision::kDroppedInvalid, frame, reason);
  }
  if (!round.a1.verify_proof(a2, it->second.algo, stats_.hashes)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kBadMac);
  }

  ++stats_.acks_verified;
  return forward(dir, frame);
}

std::size_t RelayEngine::buffered_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [id, assoc] : assocs_) {
    const std::size_t h = crypto::digest_size(assoc.algo);
    for (const auto& flow : assoc.flows) {
      for (const auto& [seq, round] : flow.rounds) {
        total += round.s1.buffered_bytes(h);
      }
    }
  }
  return total;
}

std::size_t RelayEngine::ack_buffered_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [id, assoc] : assocs_) {
    const std::size_t h = crypto::digest_size(assoc.algo);
    for (const auto& flow : assoc.flows) {
      for (const auto& [seq, round] : flow.rounds) {
        total += round.a1.buffered_bytes(h);
      }
    }
  }
  return total;
}

}  // namespace alpha::core
