#include "core/relay.hpp"

#include <chrono>

#include "core/identity.hpp"
#include "core/preack.hpp"
#include "crypto/counter.hpp"
#include "merkle/amt.hpp"
#include "trace/prof.hpp"

namespace alpha::core {

namespace {
constexpr std::size_t kMaxBatch = 4096;
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
    // No handshake observed on this flow.
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward(dir, frame);
  }
  AssocState& assoc = it->second;
  FlowState& flow = assoc.flows[static_cast<int>(dir)];

  const bool tree_mode =
      s1.mode == Mode::kMerkle || s1.mode == Mode::kCumulativeMerkle;
  const std::size_t count = tree_mode ? s1.leaf_count : s1.macs.size();
  if (count == 0 || count > kMaxBatch) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kDecodeError);
  }

  if (flow.rounds.contains(s1.hdr.seq)) {
    // Retransmission of a round we already vetted: pass it along.
    return forward(dir, frame);
  }

  if (!hashchain::is_s1_index(s1.chain_index)) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }
  {
    const crypto::ScopedHashOps ops;
    const bool ok = flow.sig->accept(s1.chain_element, s1.chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) return drop(RelayDecision::kDroppedInvalid, frame,
                         trace::DropReason::kStaleChainIndex);
  }

  RelayRound round;
  round.mode = s1.mode;
  round.s1_index = s1.chain_index;
  if (s1.mode == Mode::kMerkle) {
    round.merkle_root = s1.merkle_root;
    round.leaf_count = s1.leaf_count;
  } else if (s1.mode == Mode::kCumulativeMerkle) {
    round.merkle_roots = s1.merkle_roots;
    round.group_size = s1.group_size;
    round.leaf_count = s1.leaf_count;
  } else {
    round.macs = s1.macs;
  }
  flow.rounds.emplace(s1.hdr.seq, std::move(round));
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
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward(dir, frame);
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
  {
    const crypto::ScopedHashOps ops;
    const bool ok = flow.ack->accept_or_derive(a1.ack_element,
                                    a1.ack_chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) return drop(RelayDecision::kDroppedInvalid, frame,
                         trace::DropReason::kStaleChainIndex);
  }

  if (a1.scheme == wire::AckScheme::kPreAck &&
      a1.pre_acks.size() != round.message_count()) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kDecodeError);
  }

  round.a1_seen = true;
  round.scheme = a1.scheme;
  round.a1_ack_index = a1.ack_chain_index;
  round.pre_acks = a1.pre_acks;
  round.pre_nacks = a1.pre_nacks;
  round.amt_root = a1.amt_root;
  round.amt_count = a1.amt_msg_count;
  return forward(dir, frame);
}

RelayDecision RelayEngine::handle_s2(Direction dir, const wire::S2View& s2,
                                     crypto::ByteView frame) {
  const auto it = assocs_.find(s2.hdr.assoc_id);
  if (it == assocs_.end() || !it->second.flows[static_cast<int>(dir)].sig) {
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward(dir, frame);
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

  if (s2.mode != round.mode || s2.msg_index >= round.message_count() ||
      s2.chain_index + 1 != round.s1_index) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }

  // Authenticate the disclosed MAC key: the first S2 of the round pays the
  // chain walk, every later one is a constant-time compare on the memo.
  if (round.disclosed.has_value()) {
    if (!round.disclosed->ct_equals(s2.disclosed_element)) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kBadMac);
    }
  } else {
    const crypto::ScopedHashOps ops;
    const bool ok = flow.sig->accept_or_derive(s2.disclosed_element, s2.chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) return drop(RelayDecision::kDroppedInvalid, frame,
                         trace::DropReason::kStaleChainIndex);
    round.disclosed = s2.disclosed_element;
  }

  bool valid = false;
  {
    const crypto::ScopedHashOps ops;
    const crypto::HashAlgo algo = it->second.algo;
    if (round.mode == Mode::kMerkle) {
      if (s2.has_path && s2.leaf_index == s2.msg_index) {
        const crypto::Digest leaf = crypto::hash(algo, s2.payload);
        s2.path_into(path_scratch_);
        valid = merkle::MerkleTree::verify_keyed(
            algo, s2.disclosed_element.view(), leaf, path_scratch_,
            round.merkle_root);
      }
    } else if (round.mode == Mode::kCumulativeMerkle) {
      const std::size_t group = s2.msg_index / round.group_size;
      const std::size_t within = s2.msg_index % round.group_size;
      if (s2.has_path && s2.leaf_index == within &&
          group < round.merkle_roots.size()) {
        const crypto::Digest leaf = crypto::hash(algo, s2.payload);
        s2.path_into(path_scratch_);
        valid = merkle::MerkleTree::verify_keyed(
            algo, s2.disclosed_element.view(), leaf, path_scratch_,
            round.merkle_roots[group]);
      }
    } else {
      if (!round.mac_ctx.has_value()) {
        round.mac_ctx.emplace(config_.mac_kind, algo,
                              s2.disclosed_element.view());
      }
      valid = round.mac_ctx->verify(s2.payload, round.macs[s2.msg_index]);
    }
    stats_.hashes.signature += ops.delta().hash_finalizations;
  }
  if (!valid) {
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
    return options_.require_handshake
               ? drop(RelayDecision::kDroppedUnsolicited, frame,
                      trace::DropReason::kUnsolicited)
               : forward(dir, frame);
  }
  FlowState& flow = it->second.flows[static_cast<int>(flow_dir)];

  const auto round_it = flow.rounds.find(a2.hdr.seq);
  if (round_it == flow.rounds.end() || !round_it->second.a1_seen) {
    return drop(RelayDecision::kDroppedUnsolicited, frame,
                trace::DropReason::kUnsolicited);
  }
  RelayRound& round = round_it->second;

  if (a2.scheme != round.scheme ||
      a2.ack_chain_index + 1 != round.a1_ack_index ||
      a2.msg_index >= round.message_count()) {
    return drop(RelayDecision::kDroppedInvalid, frame,
                trace::DropReason::kStaleChainIndex);
  }

  if (round.ack_disclosed.has_value()) {
    if (!round.ack_disclosed->ct_equals(a2.disclosed_ack_element)) {
      return drop(RelayDecision::kDroppedInvalid, frame,
                  trace::DropReason::kBadMac);
    }
  } else {
    const crypto::ScopedHashOps ops;
    const bool ok = flow.ack->accept_or_derive(a2.disclosed_ack_element,
                                    a2.ack_chain_index);
    stats_.hashes.chain_verify += ops.delta().hash_finalizations;
    if (!ok) return drop(RelayDecision::kDroppedInvalid, frame,
                         trace::DropReason::kStaleChainIndex);
    round.ack_disclosed = a2.disclosed_ack_element;
  }

  bool valid = false;
  const bool is_ack = a2.kind == wire::AckKind::kAck;
  {
    const crypto::ScopedHashOps ops;
    const crypto::HashAlgo algo = it->second.algo;
    if (round.scheme == wire::AckScheme::kPreAck) {
      const crypto::Digest& committed = is_ack ? round.pre_acks[a2.msg_index]
                                               : round.pre_nacks[a2.msg_index];
      valid = verify_pre_ack(algo, a2.disclosed_ack_element, is_ack, a2.secret,
                             committed);
    } else if (round.scheme == wire::AckScheme::kAmt && a2.path.has_value()) {
      merkle::AckMerkleTree::Proof proof;
      proof.is_ack = is_ack;
      proof.msg_index = a2.msg_index;
      proof.secret = a2.secret;
      proof.path = a2.path->to_auth_path();
      valid = merkle::AckMerkleTree::verify(algo,
                                            a2.disclosed_ack_element.view(),
                                            proof, round.amt_root,
                                            round.amt_count);
    }
    stats_.hashes.ack += ops.delta().hash_finalizations;
  }
  if (!valid) {
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
        switch (round.mode) {
          case Mode::kMerkle:
            total += h;
            break;
          case Mode::kCumulativeMerkle:
            total += round.merkle_roots.size() * h;
            break;
          default:
            total += round.macs.size() * h;
            break;
        }
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
        if (round.scheme == wire::AckScheme::kPreAck) {
          total += (round.pre_acks.size() + round.pre_nacks.size()) * h;
        } else if (round.scheme == wire::AckScheme::kAmt) {
          total += h;  // only the AMT root
        }
      }
    }
  }
  return total;
}

}  // namespace alpha::core
