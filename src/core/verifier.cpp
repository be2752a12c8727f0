#include "core/verifier.hpp"

#include <stdexcept>

#include "core/preack.hpp"
#include "crypto/counter.hpp"
#include "trace/trace.hpp"

namespace alpha::core {

namespace {
// Completed/stale rounds retained for idempotent duplicate handling.
constexpr std::size_t kMaxPendingRounds = 8;
}  // namespace

VerifierEngine::VerifierEngine(Config config, std::uint32_t assoc_id,
                               hashchain::HashChain ack_chain,
                               crypto::Digest sig_anchor,
                               std::size_t sig_anchor_index,
                               Callbacks callbacks,
                               crypto::RandomSource& rng)
    : config_(config),
      assoc_id_(assoc_id),
      ack_chain_(std::move(ack_chain)),
      walker_(ack_chain_),
      sig_verifier_(config.algo, hashchain::ChainTagging::kRoleBound,
                    std::move(sig_anchor), sig_anchor_index, config.max_gap),
      callbacks_(std::move(callbacks)),
      rng_(&rng) {
  if (ack_chain_.algo() != config_.algo) {
    throw std::invalid_argument("VerifierEngine: chain algorithm mismatch");
  }
  if (ack_chain_.tagging() != hashchain::ChainTagging::kRoleBound) {
    throw std::invalid_argument("VerifierEngine: chain must be role-bound");
  }
}

void VerifierEngine::on_s1(const wire::S1Packet& s1) {
  if (s1.hdr.assoc_id != assoc_id_) return;
  const auto drop_s1 = [&](trace::DropReason reason) {
    trace::emit(trace::EventKind::kPacketDropped, assoc_id_, s1.hdr.seq,
                static_cast<std::uint8_t>(wire::PacketType::kS1), reason);
  };
  if (!accepting_) {  // deny A1: unsolicited data dies at the relays
    drop_s1(trace::DropReason::kUnsolicited);
    return;
  }

  // Duplicate S1 (signer retransmission): replay the cached A1.
  if (const auto it = rounds_.find(s1.hdr.seq); it != rounds_.end()) {
    if (it->second.s1_element.ct_equals(s1.chain_element) &&
        !it->second.a1_frame.empty()) {
      ++stats_.duplicate_packets;
      drop_s1(trace::DropReason::kDuplicateS1);
      trace::emit(trace::EventKind::kPacketSent, assoc_id_, s1.hdr.seq,
                  static_cast<std::uint8_t>(wire::PacketType::kA1),
                  trace::DropReason::kNone, /*resend=*/1);
      callbacks_.send(it->second.a1_frame);
    } else {
      ++stats_.invalid_packets;
      drop_s1(trace::DropReason::kBadMac);
    }
    return;
  }

  if (!S1Commitment::within_bound(s1)) {
    ++stats_.invalid_packets;
    drop_s1(trace::DropReason::kDecodeError);
    return;
  }

  // The S1 must be authenticated by a fresh odd-index chain element.
  if (!authenticate_announcement(sig_verifier_, s1.chain_element,
                                 s1.chain_index, stats_.hashes)) {
    ++stats_.invalid_packets;
    drop_s1(trace::DropReason::kStaleChainIndex);
    return;
  }

  if (walker_.remaining() < 2) {  // ack chain exhausted: deny
    drop_s1(trace::DropReason::kChainExhausted);
    return;
  }

  PendingRound round(s1);
  const std::size_t count = round.s1.message_count();
  round.received.assign(count, 0);

  // Two ack-chain elements per round: h^Va_i (odd, authenticates the A1)
  // and h^Va_{i-1} (even, keys the pre-(n)acks, disclosed in A2 packets).
  round.a1_ack_index = walker_.next_index();
  const crypto::Digest a1_element = walker_.peek(0);
  round.ack_key = walker_.peek(1);
  walker_.take(2);

  wire::A1Packet a1;
  a1.hdr = {assoc_id_, s1.hdr.seq};
  a1.ack_chain_index = static_cast<std::uint32_t>(round.a1_ack_index);
  a1.ack_element = a1_element;

  if (config_.reliable) {
    const crypto::ScopedHashOps ops;
    if (s1.mode == Mode::kMerkle || s1.mode == Mode::kCumulativeMerkle) {
      a1.scheme = wire::AckScheme::kAmt;
      round.amt.emplace(config_.algo, count, *rng_, config_.secret_size);
      a1.amt_root = round.amt->keyed_root(round.ack_key.view());
      a1.amt_msg_count = static_cast<std::uint16_t>(count);
    } else {
      a1.scheme = wire::AckScheme::kPreAck;
      round.ack_secrets.reserve(count);
      round.nack_secrets.reserve(count);
      for (std::size_t j = 0; j < count; ++j) {
        round.ack_secrets.push_back(rng_->bytes(config_.secret_size));
        round.nack_secrets.push_back(rng_->bytes(config_.secret_size));
        a1.pre_acks.push_back(make_pre_ack(config_.algo, round.ack_key, true,
                                           round.ack_secrets.back()));
        a1.pre_nacks.push_back(make_pre_ack(config_.algo, round.ack_key, false,
                                            round.nack_secrets.back()));
      }
    }
    stats_.hashes.ack += ops.delta().hash_finalizations;
  }

  crypto::Bytes frame = a1.encode();
  round.a1_frame = frame;
  rounds_.emplace(s1.hdr.seq, std::move(round));
  ++stats_.s1_accepted;
  ++stats_.a1_sent;
  trace::emit(trace::EventKind::kPacketAccepted, assoc_id_, s1.hdr.seq,
              static_cast<std::uint8_t>(wire::PacketType::kS1),
              trace::DropReason::kNone, count);
  trace::emit(trace::EventKind::kPacketSent, assoc_id_, s1.hdr.seq,
              static_cast<std::uint8_t>(wire::PacketType::kA1));
  callbacks_.send(std::move(frame));
  retire_old_rounds();
}

void VerifierEngine::on_s2(const wire::S2View& s2) {
  if (s2.hdr.assoc_id != assoc_id_) return;
  const auto drop_s2 = [&](trace::DropReason reason) {
    trace::emit(trace::EventKind::kPacketDropped, assoc_id_, s2.hdr.seq,
                static_cast<std::uint8_t>(wire::PacketType::kS2), reason,
                s2.msg_index);
  };
  const auto it = rounds_.find(s2.hdr.seq);
  if (it == rounds_.end()) {
    ++stats_.invalid_packets;  // no S1 context: unsolicited
    drop_s2(trace::DropReason::kStaleRound);
    return;
  }
  PendingRound& round = it->second;

  if (!round.s1.matches(s2)) {
    ++stats_.invalid_packets;
    drop_s2(trace::DropReason::kStaleChainIndex);
    return;
  }

  // Duplicate of an already-delivered message: re-ack idempotently.
  if (round.received[s2.msg_index]) {
    ++stats_.duplicate_packets;
    drop_s2(trace::DropReason::kDuplicateS2);
    if (const auto frame = round.a2_frames.find(s2.msg_index);
        frame != round.a2_frames.end()) {
      callbacks_.send(frame->second);
    }
    return;
  }

  // Authenticate the disclosed MAC key h_{i-1} (even index), then check
  // the payload against the buffered pre-signature.
  if (const auto reason =
          round.s1.authenticate_key(s2, sig_verifier_, stats_.hashes);
      reason != trace::DropReason::kNone) {
    ++stats_.invalid_packets;
    drop_s2(reason);
    return;
  }
  if (!round.s1.verify_payload(s2, config_.mac_kind, config_.algo,
                               path_scratch_, stats_.hashes)) {
    ++stats_.invalid_packets;
    drop_s2(trace::DropReason::kBadMac);
    if (config_.reliable) {
      send_a2(round, s2.hdr.seq, s2.msg_index, /*ack=*/false);
    }
    return;
  }

  round.received[s2.msg_index] = 1;
  ++stats_.s2_accepted;
  ++stats_.messages_delivered;
  trace::emit(trace::EventKind::kPacketAccepted, assoc_id_, s2.hdr.seq,
              static_cast<std::uint8_t>(wire::PacketType::kS2),
              trace::DropReason::kNone, s2.msg_index);
  trace::emit(trace::EventKind::kDelivered, assoc_id_, s2.hdr.seq,
              static_cast<std::uint8_t>(wire::PacketType::kS2),
              trace::DropReason::kNone, s2.msg_index);
  if (callbacks_.on_message) {
    callbacks_.on_message(s2.hdr.seq, s2.msg_index, s2.payload);
  }
  if (config_.reliable) {
    send_a2(round, s2.hdr.seq, s2.msg_index, /*ack=*/true);
  }
}

void VerifierEngine::send_a2(PendingRound& round, std::uint32_t seq,
                             std::uint16_t index, bool ack) {
  wire::A2Packet a2;
  a2.hdr = {assoc_id_, seq};
  a2.ack_chain_index = static_cast<std::uint32_t>(round.a1_ack_index - 1);
  a2.disclosed_ack_element = round.ack_key;
  a2.kind = ack ? wire::AckKind::kAck : wire::AckKind::kNack;
  a2.msg_index = index;

  const crypto::ScopedHashOps ops;
  if (round.amt.has_value()) {
    a2.scheme = wire::AckScheme::kAmt;
    const auto proof = round.amt->prove(index, ack);
    a2.secret = proof.secret;
    a2.path = wire::WirePath::from_auth_path(proof.path);
  } else {
    a2.scheme = wire::AckScheme::kPreAck;
    a2.secret = ack ? round.ack_secrets[index] : round.nack_secrets[index];
  }
  stats_.hashes.ack += ops.delta().hash_finalizations;

  crypto::Bytes frame = a2.encode();
  if (ack) round.a2_frames[index] = frame;  // idempotent duplicate handling
  ++stats_.a2_sent;
  trace::emit(trace::EventKind::kPacketSent, assoc_id_, seq,
              static_cast<std::uint8_t>(wire::PacketType::kA2),
              trace::DropReason::kNone, ack ? 1 : 0);
  callbacks_.send(std::move(frame));
}

void VerifierEngine::retire_old_rounds() {
  while (rounds_.size() > kMaxPendingRounds) {
    rounds_.erase(rounds_.begin());  // oldest seq
  }
}

std::size_t VerifierEngine::buffered_bytes() const noexcept {
  const std::size_t h = config_.digest_size();
  std::size_t total = 0;
  for (const auto& [seq, round] : rounds_) {
    total += round.s1.buffered_bytes(h);
  }
  return total;
}

std::size_t VerifierEngine::ack_buffered_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [seq, round] : rounds_) {
    if (round.amt.has_value()) {
      total += round.amt->memory_bytes();
    } else {
      for (const auto& s : round.ack_secrets) total += s.size();
      for (const auto& s : round.nack_secrets) total += s.size();
    }
  }
  return total;
}

}  // namespace alpha::core
