#include "core/host.hpp"

#include <algorithm>
#include <unordered_map>

#include "trace/trace.hpp"

namespace alpha::core {

namespace {
hashchain::HashChain make_chain(const Config& config,
                                crypto::RandomSource& rng) {
  return hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng,
      config.chain_length);
}
}  // namespace

Host::Host(Config config, std::uint32_t assoc_id, bool initiator,
           crypto::RandomSource& rng, Callbacks callbacks, Options options)
    : config_(config),
      assoc_id_(assoc_id),
      initiator_(initiator),
      rng_(&rng),
      callbacks_(std::move(callbacks)),
      options_(options),
      sig_chain_(make_chain(config, rng)),
      ack_chain_(make_chain(config, rng)) {
  if (config_.chain_length % 2 != 0 || config_.chain_length < 4) {
    throw std::invalid_argument("Host: chain_length must be even and >= 4");
  }
}

wire::HandshakePacket Host::make_handshake(
    bool is_response,
    const std::optional<wire::ReconfigAnnounce>& reconfig) {
  wire::HandshakePacket hs;
  hs.hdr = {assoc_id_, hs_seq_};
  hs.is_response = is_response;
  hs.reconfig = reconfig;
  hs.algo = config_.algo;
  hs.chain_length = static_cast<std::uint32_t>(config_.chain_length);
  hs.sig_anchor_index = static_cast<std::uint32_t>(sig_chain_.length());
  hs.ack_anchor_index = static_cast<std::uint32_t>(ack_chain_.length());
  hs.sig_anchor = sig_chain_.anchor();
  hs.ack_anchor = ack_chain_.anchor();
  if (options_.identity != nullptr) {
    hs.sig_alg = options_.identity->alg();
    hs.public_key = options_.identity->encode_public();
    hs.signature =
        options_.identity->sign(config_.algo, hs.signed_payload(), *rng_);
  }
  return hs;
}

bool Host::validate_peer_handshake(const wire::HandshakePacket& hs) const {
  if (hs.hdr.assoc_id != assoc_id_) return false;
  // Monotonic handshake counter: a replayed (or stale) handshake cannot
  // reset the association to already-disclosed chains.
  if (hs.hdr.seq <= peer_hs_seq_ && peer_hs_seq_ != 0) return false;
  if (hs.algo != config_.algo) return false;
  if (hs.chain_length < 4) return false;
  if (hs.sig_anchor.size() != config_.digest_size() ||
      hs.ack_anchor.size() != config_.digest_size()) {
    return false;
  }
  if (options_.require_protected_peer) {
    if (hs.sig_alg == wire::SigAlg::kNone) return false;
    const auto peer = PeerIdentity::decode(hs.sig_alg, hs.public_key);
    if (!peer.has_value() ||
        !peer->verify(config_.algo, hs.signed_payload(), hs.signature)) {
      return false;
    }
  }
  return true;
}

void Host::start(std::uint64_t now_us) {
  if (!initiator_) return;
  if (established()) {
    // Revive an association whose *rekey* handshake exhausted its retransmit
    // budget (e.g. the path partitioned mid-rekey and later healed): resend
    // the same rekey HS1 with a fresh budget. The chains were already
    // rotated and the rekey already counted, so neither happens again.
    if (rekey_pending_ && failed_) {
      hs_retries_ = 0;
      failed_ = false;
      // Re-anchor the retransmission timer at this send. Leaving the stale
      // anchor made the next on_tick fire an immediate duplicate of the
      // frame sent right here, spending one retry of the fresh budget on a
      // copy the network had already carried.
      if (now_us != 0) last_hs_send_us_ = now_us;
      trace::emit(trace::EventKind::kPacketSent, assoc_id_, hs_seq_,
                  static_cast<std::uint8_t>(wire::PacketType::kHs1),
                  trace::DropReason::kNone, /*resend=*/1);
      callbacks_.send(
          make_handshake(/*is_response=*/false, announced_reconfig_).encode());
    }
    return;
  }
  if (!handshake_sent_) {
    handshake_sent_ = true;
    ++hs_seq_;
    trace::emit(trace::EventKind::kHandshakeStart, assoc_id_, hs_seq_,
                static_cast<std::uint8_t>(wire::PacketType::kHs1));
  }
  // Re-invocations retransmit the same HS1 (same seq, same anchors) and
  // replenish the retransmit budget; on_tick() retransmits automatically
  // while unestablished.
  hs_retries_ = 0;
  failed_ = false;
  if (now_us != 0) last_hs_send_us_ = now_us;
  trace::emit(trace::EventKind::kPacketSent, assoc_id_, hs_seq_,
              static_cast<std::uint8_t>(wire::PacketType::kHs1));
  callbacks_.send(
      make_handshake(/*is_response=*/false, announced_reconfig_).encode());
}

void Host::rotate_chains() {
  sig_chain_ = make_chain(config_, *rng_);
  ack_chain_ = make_chain(config_, *rng_);
}

void Host::maybe_begin_rekey(std::uint64_t now_us) {
  if (!initiator_ || rekey_pending_ || !established()) return;
  const bool threshold_hit =
      config_.rekey_threshold != 0 &&
      signer_->chain_remaining() < config_.rekey_threshold;
  // A staged reconfiguration needs its own rekey boundary even when the
  // chain still has plenty of headroom (and even with rekeying disabled by
  // threshold): this is how a request that arrived mid-rekey eventually
  // lands instead of being lost.
  if (!threshold_hit && !staged_reconfig_.has_value()) return;
  if (signer_->round_active()) {
    // Hold the boundary open: let the in-flight round finish but keep the
    // signer from chaining the backlog straight into the next round. A
    // deep post-outage queue would otherwise drain entirely on the old
    // profile before the switch could ever land (pausing only inhibits
    // new rounds -- the active round keeps retransmitting and settling).
    signer_->set_paused(true);
    return;
  }
  (void)force_rekey(now_us);
}

bool Host::request_reconfig(const wire::ReconfigAnnounce& reconfig,
                            std::uint64_t now_us) {
  if (!initiator_) return false;
  staged_reconfig_ = reconfig;  // latest request wins
  if (rekey_pending_ || !established()) return false;
  // Never tear down an active round for a reconfiguration. force_rekey()
  // rips the round and resubmits its unsettled messages -- the right move
  // for the mobility hook, where the old path is dead and at-least-once
  // resubmission is the only way forward. Here the path is live: a ripped
  // message whose S2 already landed (only its A2 was lost) would be
  // re-signed under the fresh chains and delivered a second time. Waiting
  // for the round boundary (maybe_begin_rekey, every submit/tick) keeps
  // reconfiguration switches exactly-once.
  if (signer_->round_active()) return false;
  return force_rekey(now_us);
}

void Host::apply_reconfig(const wire::ReconfigAnnounce& reconfig) {
  config_.mode = reconfig.mode;
  config_.batch_size = reconfig.batch_size;
  config_.merkle_group = reconfig.merkle_group;
  config_.max_retries = reconfig.max_retries;
  config_.rekey_threshold = reconfig.rekey_threshold;
  ++reconfigs_applied_;
}

bool Host::force_rekey(std::uint64_t now_us) {
  if (!initiator_ || rekey_pending_ || !established()) return false;
  rotate_chains();
  rekey_pending_ = true;
  signer_->set_paused(true);  // queue, but sign nothing until fresh chains
  // Snapshot the staged reconfiguration for this handshake: every
  // retransmission of this HS1 must carry the *same* announcement even if a
  // newer request supersedes it mid-flight (the superseding request stays
  // staged and triggers its own rekey afterwards).
  announced_reconfig_ = staged_reconfig_;
  ++hs_seq_;
  hs_retries_ = 0;
  last_hs_send_us_ = now_us;
  trace::emit(trace::EventKind::kRekeyStart, assoc_id_, hs_seq_,
              static_cast<std::uint8_t>(wire::PacketType::kHs1));
  trace::emit(trace::EventKind::kPacketSent, assoc_id_, hs_seq_,
              static_cast<std::uint8_t>(wire::PacketType::kHs1));
  callbacks_.send(
      make_handshake(/*is_response=*/false, announced_reconfig_).encode());
  return true;
}

void Host::reestablish(const wire::HandshakePacket& peer,
                       std::uint64_t now_us) {
  // The outgoing engines are about to be replaced: fold their counters into
  // the association-lifetime totals first, or every rekey would silently
  // reset the snapshot stats.
  retired_signer_stats_ += signer_->stats();
  retired_verifier_stats_ += verifier_->stats();
  // Preserve messages the old signer had queued but not yet pre-signed.
  auto backlog = signer_->drain_backlog();
  // Carry the cookie counter across the engine swap: a fresh engine restarts
  // at 1, which would hand out cookies the retired generations already used
  // (resubmitted backlog keeps its old cookies), making delivery reports
  // ambiguous -- and driving supervisor-side cookie mirrors out of sync.
  const std::uint64_t cookie_watermark = signer_->next_cookie();
  establish(peer, now_us);
  signer_->seed_cookies(cookie_watermark);
  for (auto& [cookie, payload] : backlog) {
    // resubmission: the retired engine already counted these messages.
    signer_->submit(std::move(payload), now_us, cookie,
                    /*resubmission=*/true);
  }
}

void Host::establish(const wire::HandshakePacket& peer, std::uint64_t now_us) {
  SignerEngine::Callbacks signer_cb;
  signer_cb.send = callbacks_.send;
  signer_cb.on_delivery = callbacks_.on_delivery;
  signer_ = std::make_unique<SignerEngine>(
      config_, assoc_id_, std::move(sig_chain_), peer.ack_anchor,
      peer.ack_anchor_index, std::move(signer_cb));

  VerifierEngine::Callbacks verifier_cb;
  verifier_cb.send = callbacks_.send;
  verifier_cb.on_message = [this](std::uint32_t, std::uint16_t,
                                  crypto::ByteView payload) {
    if (callbacks_.on_message) callbacks_.on_message(payload);
  };
  verifier_ = std::make_unique<VerifierEngine>(
      config_, assoc_id_, std::move(ack_chain_), peer.sig_anchor,
      peer.sig_anchor_index, std::move(verifier_cb), *rng_);

  while (!pre_establish_queue_.empty()) {
    auto& pending = pre_establish_queue_.front();
    const std::uint64_t host_cookie = pending.cookie;
    crypto::Bytes payload = std::move(pending.payload);
    pre_establish_queue_.pop_front();
    signer_->submit(std::move(payload), now_us, host_cookie);
  }
}

void Host::on_frame(crypto::ByteView frame, std::uint64_t now_us) {
  // S2s, the steady-state traffic, take the zero-copy view (no heap).
  const bool is_s2 = wire::peek_type(frame) == wire::PacketType::kS2;
  const auto s2 = is_s2 ? wire::parse_s2(frame) : std::nullopt;
  const auto packet = is_s2 ? std::nullopt : wire::decode(frame);
  if (!s2.has_value() && !packet.has_value()) {
    // Corrupted in flight (or garbage injected); count it so chaos runs can
    // assert the rejection path fired.
    ++undecodable_frames_;
    trace::emit(trace::EventKind::kPacketDropped, assoc_id_, 0, 0,
                trace::DropReason::kDecodeError, frame.size());
    return;
  }

  if (const auto* hs =
          packet ? std::get_if<wire::HandshakePacket>(&*packet) : nullptr) {
    const std::uint8_t hs_type = static_cast<std::uint8_t>(
        hs->is_response ? wire::PacketType::kHs2 : wire::PacketType::kHs1);
    const auto drop_hs = [&](trace::DropReason reason) {
      trace::emit(trace::EventKind::kPacketDropped, assoc_id_, hs->hdr.seq,
                  hs_type, reason);
    };
    // Replay accounting: a handshake whose counter does not advance is
    // rejected below (validate_peer_handshake) or answered from the cached
    // HS2. A counter strictly behind ours is a replay (or long-stale
    // retransmission); an exact match is a benign duplicate of the current
    // handshake. Conflating the two made chaos runs with duplication look
    // like they were under replay attack.
    if (hs->hdr.assoc_id == assoc_id_ && peer_hs_seq_ != 0 &&
        hs->hdr.seq <= peer_hs_seq_) {
      if (hs->hdr.seq < peer_hs_seq_) {
        ++replayed_handshakes_;
      } else {
        ++duplicate_handshakes_;
      }
    }
    // Duplicate HS1 (our HS2 may have been lost): re-answer idempotently
    // without resetting any chain state. Checked before the monotonic-seq
    // validation, which rightly rejects old counters otherwise.
    if (!hs->is_response && !initiator_ && established() &&
        hs->hdr.assoc_id == assoc_id_ && hs->hdr.seq == peer_hs_seq_ &&
        !last_hs_response_.empty()) {
      drop_hs(trace::DropReason::kDuplicateHandshake);
      trace::emit(trace::EventKind::kPacketSent, assoc_id_, hs_seq_,
                  static_cast<std::uint8_t>(wire::PacketType::kHs2),
                  trace::DropReason::kNone, /*resend=*/1);
      callbacks_.send(last_hs_response_);
      return;
    }
    if (!validate_peer_handshake(*hs)) {
      if (hs->hdr.assoc_id == assoc_id_ && peer_hs_seq_ != 0) {
        if (hs->hdr.seq < peer_hs_seq_) {
          drop_hs(trace::DropReason::kReplay);
          return;
        }
        if (hs->hdr.seq == peer_hs_seq_) {
          drop_hs(trace::DropReason::kDuplicateHandshake);
          return;
        }
      }
      drop_hs(trace::DropReason::kBadMac);
      return;
    }
    if (!hs->is_response) {
      if (initiator_) {  // initiators never answer an HS1
        drop_hs(trace::DropReason::kUnsolicited);
        return;
      }
      if (!established()) {
        // Initial bootstrap: answer with HS2, wire the engines. An announced
        // profile (rare at bootstrap, normal at rekey) is adopted before the
        // engines are built and echoed so the initiator knows it landed.
        peer_hs_seq_ = hs->hdr.seq;
        handshake_sent_ = true;
        ++hs_seq_;
        if (hs->reconfig.has_value()) apply_reconfig(*hs->reconfig);
        trace::emit(trace::EventKind::kPacketAccepted, assoc_id_,
                    hs->hdr.seq, hs_type);
        trace::emit(trace::EventKind::kPacketSent, assoc_id_, hs_seq_,
                    static_cast<std::uint8_t>(wire::PacketType::kHs2));
        last_hs_response_ =
            make_handshake(/*is_response=*/true, hs->reconfig).encode();
        callbacks_.send(last_hs_response_);
        establish(*hs, now_us);
        trace::emit(trace::EventKind::kEstablished, assoc_id_, hs->hdr.seq,
                    hs_type);
      } else {
        // Rekey request: rotate own chains, answer, swap engines. Any
        // announced profile takes effect *here*, before the fresh engines
        // are built, so the new generation starts on the new profile; the
        // echo in the HS2 (and in the cached duplicate answer) tells the
        // initiator to do the same. A retransmitted HS1 carries the same
        // announcement, and its duplicate is answered from the cached HS2
        // above -- the profile is applied exactly once per handshake seq.
        peer_hs_seq_ = hs->hdr.seq;
        rotate_chains();
        ++hs_seq_;
        if (hs->reconfig.has_value()) apply_reconfig(*hs->reconfig);
        trace::emit(trace::EventKind::kPacketAccepted, assoc_id_,
                    hs->hdr.seq, hs_type);
        trace::emit(trace::EventKind::kPacketSent, assoc_id_, hs_seq_,
                    static_cast<std::uint8_t>(wire::PacketType::kHs2));
        last_hs_response_ =
            make_handshake(/*is_response=*/true, hs->reconfig).encode();
        callbacks_.send(last_hs_response_);
        reestablish(*hs, now_us);
        trace::emit(trace::EventKind::kRekeyFinish, assoc_id_, hs->hdr.seq,
                    hs_type);
      }
      return;
    }
    // HS2 responses.
    if (!initiator_) {
      drop_hs(trace::DropReason::kUnsolicited);
      return;
    }
    if (!established()) {
      peer_hs_seq_ = hs->hdr.seq;
      hs_retries_ = 0;
      failed_ = false;
      if (announced_reconfig_.has_value() &&
          hs->reconfig == announced_reconfig_) {
        apply_reconfig(*announced_reconfig_);
        if (staged_reconfig_ == announced_reconfig_) staged_reconfig_.reset();
      }
      announced_reconfig_.reset();
      trace::emit(trace::EventKind::kPacketAccepted, assoc_id_, hs->hdr.seq,
                  hs_type);
      establish(*hs, now_us);
      trace::emit(trace::EventKind::kEstablished, assoc_id_, hs->hdr.seq,
                  hs_type);
    } else if (rekey_pending_) {
      peer_hs_seq_ = hs->hdr.seq;
      rekey_pending_ = false;
      hs_retries_ = 0;
      failed_ = false;
      // Apply the announced profile only on an exact echo: the responder
      // confirming a *different* (or absent) announcement means this HS2
      // answers some other handshake generation, and switching unilaterally
      // could desync the two ends' profiles. The staged request survives in
      // that case and triggers a follow-up rekey (maybe_begin_rekey), so
      // the reconfiguration is delayed, never lost. If a newer request
      // superseded the announced one mid-flight, the announced profile is
      // still applied (both ends agreed on it) and the newer one stays
      // staged for its own boundary.
      if (announced_reconfig_.has_value() &&
          hs->reconfig == announced_reconfig_) {
        apply_reconfig(*announced_reconfig_);
        if (staged_reconfig_ == announced_reconfig_) staged_reconfig_.reset();
      }
      announced_reconfig_.reset();
      trace::emit(trace::EventKind::kPacketAccepted, assoc_id_, hs->hdr.seq,
                  hs_type);
      reestablish(*hs, now_us);
      trace::emit(trace::EventKind::kRekeyFinish, assoc_id_, hs->hdr.seq,
                  hs_type);
    } else {
      drop_hs(trace::DropReason::kUnsolicited);
    }
    return;
  }

  if (!established()) {
    if (trace::enabled()) {
      std::uint8_t type = 0;
      std::uint32_t seq = 0;
      if (const auto t = wire::peek_type(frame)) {
        type = static_cast<std::uint8_t>(*t);
      }
      if (const auto hdr = wire::peek_header(frame)) seq = hdr->seq;
      trace::emit(trace::EventKind::kPacketDropped, assoc_id_, seq, type,
                  trace::DropReason::kUnsolicited);
    }
    return;
  }
  if (s2.has_value()) {
    verifier_->on_s2(*s2);
  } else if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
    verifier_->on_s1(*s1);
  } else if (const auto* a1 = std::get_if<wire::A1Packet>(&*packet)) {
    signer_->on_a1(*a1, now_us);
  } else if (const auto* a2 = std::get_if<wire::A2Packet>(&*packet)) {
    signer_->on_a2(*a2, now_us);
  }
  // Rounds complete on frame arrival (the settling A2), so this is where a
  // held rekey boundary actually opens -- waiting for the next submit or
  // tick would let a deep backlog chain straight into the next round on
  // the old profile.
  maybe_begin_rekey(now_us);
}

std::uint64_t Host::submit(crypto::Bytes message, std::uint64_t now_us) {
  if (established()) {
    // Rotate *before* the signer could exhaust mid-burst: a paused signer
    // queues the message safely until the fresh chains arrive.
    maybe_begin_rekey(now_us);
    return signer_->submit(std::move(message), now_us);
  }
  const std::uint64_t cookie = 1'000'000'000ull + next_cookie_++;
  pre_establish_queue_.push_back(Pending{cookie, std::move(message)});
  return cookie;
}

void Host::retransmit_handshake(std::uint64_t now_us) {
  if (failed_ ||
      now_us - last_hs_send_us_ <
          retransmit_delay(config_, hs_retries_, hs_salt())) {
    return;
  }
  // Budget: a partitioned or dead peer must not provoke an endless
  // retransmit storm. start() or an inbound HS2 replenishes the budget.
  // A rekey announcing a *more robust* profile runs on that profile's
  // budget, not the old one: the controller demotes precisely because the
  // channel is failing, and the handshake that installs the fat retry
  // budget would otherwise exhaust the lean budget it is trying to replace
  // and fail the association mid-outage.
  int budget = config_.max_retries;
  if (announced_reconfig_.has_value()) {
    budget = std::max(budget, static_cast<int>(
                                  announced_reconfig_->max_retries));
  }
  if (hs_retries_ >= budget) {
    // Only the *establishment* handshake gives up: its peer may simply not
    // exist. An established association mid-rekey proved its peer moments
    // ago -- the outage belongs to the channel -- so instead of failing the
    // association (losing every queued message to an optimistic rekey fired
    // just before a partition), keep a slow HS1 heartbeat at the backoff
    // cap. The signer stays paused, messages queue, and the first healed
    // round trip completes the rekey.
    if (!established()) {
      failed_ = true;
      trace::emit(trace::EventKind::kAssocFailed, assoc_id_, hs_seq_,
                  static_cast<std::uint8_t>(wire::PacketType::kHs1),
                  trace::DropReason::kBudgetExhausted, hs_retries_);
      return;
    }
  } else {
    ++hs_retries_;
  }
  ++hs_retransmits_;
  last_hs_send_us_ = now_us;
  trace::emit(trace::EventKind::kRetransmit, assoc_id_, hs_seq_,
              static_cast<std::uint8_t>(wire::PacketType::kHs1),
              trace::DropReason::kNone, hs_retries_);
  // Retransmissions repeat the announced snapshot, not the (possibly newer)
  // staged request: the responder must see one consistent announcement per
  // handshake generation.
  callbacks_.send(
      make_handshake(/*is_response=*/false, announced_reconfig_).encode());
}

void Host::on_tick(std::uint64_t now_us) {
  if (!established()) {
    // Bootstrap robustness: retransmit the HS1 until the HS2 arrives.
    if (initiator_ && handshake_sent_) retransmit_handshake(now_us);
    return;
  }
  signer_->on_tick(now_us);
  maybe_begin_rekey(now_us);
  // A lost rekey HS1 would leave the signer paused forever: retransmit.
  if (rekey_pending_) retransmit_handshake(now_us);
}

std::optional<std::uint64_t> Host::next_deadline_us() const noexcept {
  if (failed_) return std::nullopt;
  const std::uint64_t hs_deadline =
      last_hs_send_us_ + retransmit_delay(config_, hs_retries_, hs_salt());
  if (!established()) {
    if (!initiator_ || !handshake_sent_) return std::nullopt;
    return hs_deadline;
  }
  std::optional<std::uint64_t> next = signer_->next_deadline_us();
  if (rekey_pending_ && (!next.has_value() || hs_deadline < *next)) {
    next = hs_deadline;
  }
  return next;
}

}  // namespace alpha::core
