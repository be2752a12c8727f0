#include "core/shard.hpp"

#include <stdexcept>

#include "trace/trace.hpp"

namespace alpha::core {

namespace {
std::uint64_t derive_granularity(const NodeShard::Options& options) {
  if (options.tick_granularity_us != 0) return options.tick_granularity_us;
  return std::max<std::uint64_t>(options.config.rto_us / 2, 1);
}
}  // namespace

NodeShard::NodeShard(std::uint32_t index, Options options, Callbacks callbacks,
                     SendFn send, WakeupFn wakeup, SendViewFn send_view)
    : index_(index),
      options_(std::move(options)),
      callbacks_(std::move(callbacks)),
      send_(std::move(send)),
      wakeup_(std::move(wakeup)),
      send_view_(std::move(send_view)),
      rng_(options_.seed),
      tick_granularity_(derive_granularity(options_)),
      wheel_(tick_granularity_, options_.wheel_slots) {
  if (!send_) {
    throw std::invalid_argument("NodeShard: null send function");
  }
}

Host& NodeShard::add_host(std::uint32_t assoc_id, net::PeerAddr peer,
                          bool initiator, const Config& config,
                          const Host::Options& host_options) {
  auto [it, inserted] = assocs_.try_emplace(assoc_id);
  if (!inserted) {
    throw std::invalid_argument("NodeShard: duplicate association id");
  }
  AssocEntry& entry = it->second;
  entry.assoc_id = assoc_id;
  entry.peer = peer;

  // std::map node addresses are stable: capturing &entry is safe for the
  // lifetime of the association.
  Host::Callbacks cb;
  cb.send = [this, &entry](crypto::Bytes frame) {
    ++frames_out_;
    ++entry.frames_out;
    if (!send_(entry.peer, std::move(frame))) ++send_failures_;
    // Outbound activity implies a potential retransmission deadline; the
    // wheel fire re-checks whether the association still needs ticking.
    // The timestamp is the ambient trace context one: every send happens
    // inside an entry point that just stamped it.
    arm_timer(entry, trace::current_time_us());
  };
  cb.on_message = [this, assoc_id](crypto::ByteView payload) {
    if (callbacks_.on_message) callbacks_.on_message(assoc_id, payload);
  };
  cb.on_delivery = [this, assoc_id](std::uint64_t cookie,
                                    DeliveryStatus status) {
    if (callbacks_.on_delivery) callbacks_.on_delivery(assoc_id, cookie, status);
  };
  entry.host = std::make_unique<Host>(config, assoc_id, initiator, rng_,
                                      std::move(cb), host_options);
  // The adaptivity loop drives reconfigurations, and only initiators may
  // announce them (responders adopt): responders get no controller.
  if (initiator && options_.adaptive.has_value()) {
    entry.controller = std::make_unique<AdaptiveController>(
        assoc_id, config, *options_.adaptive);
    entry.health = std::make_unique<trace::HealthMonitor>();
  }
  return *entry.host;
}

bool NodeShard::send_frame(net::PeerAddr peer, crypto::ByteView frame) {
  if (send_view_) return send_view_(peer, frame);
  return send_(peer, crypto::Bytes(frame.begin(), frame.end()));
}

RelayEngine& NodeShard::add_relay(net::PeerAddr upstream,
                                  net::PeerAddr downstream,
                                  RelayEngine::Options options,
                                  ExtractFn on_extracted,
                                  std::vector<std::uint32_t> assoc_ids) {
  auto binding = std::make_unique<RelayBinding>();
  RelayBinding* raw = binding.get();
  raw->upstream = upstream;
  raw->downstream = downstream;

  RelayEngine::Callbacks cb;
  cb.forward = [this, raw](Direction dir, crypto::ByteView frame) {
    ++frames_out_;
    const net::PeerAddr next =
        dir == Direction::kForward ? raw->downstream : raw->upstream;
    if (!send_frame(next, frame)) ++send_failures_;
  };
  cb.on_extracted = std::move(on_extracted);
  raw->engine = std::make_unique<RelayEngine>(options_.config, options,
                                              std::move(cb));
  for (const std::uint32_t id : assoc_ids) relay_by_assoc_[id] = raw;
  relays_.push_back(std::move(binding));
  return *raw->engine;
}

void NodeShard::start(std::uint32_t assoc_id, std::uint64_t now_us) {
  const auto it = assocs_.find(assoc_id);
  if (it == assocs_.end()) {
    throw std::invalid_argument("NodeShard::start: unknown association");
  }
  const trace::ScopedContext tctx(options_.trace_origin, now_us);
  it->second.host->start(now_us);
  after_activity(it->second, now_us);
}

std::uint64_t NodeShard::submit(std::uint32_t assoc_id, crypto::Bytes payload,
                                std::uint64_t now_us) {
  const auto it = assocs_.find(assoc_id);
  if (it == assocs_.end()) {
    throw std::invalid_argument("NodeShard::submit: unknown association");
  }
  const trace::ScopedContext tctx(options_.trace_origin, now_us);
  const std::uint64_t cookie = it->second.host->submit(std::move(payload),
                                                       now_us);
  after_activity(it->second, now_us);
  return cookie;
}

void NodeShard::on_frame(net::PeerAddr from, crypto::ByteView frame,
                         std::uint64_t now_us) {
  ++frames_in_;
  const trace::ScopedContext tctx(options_.trace_origin, now_us);
  const auto assoc_id = wire::peek_assoc_id(frame);
  if (!assoc_id.has_value()) {
    ++malformed_frames_;
    trace::emit(trace::EventKind::kPacketDropped, 0, 0, 0,
                trace::DropReason::kMalformedHeader, frame.size());
    return;
  }

  // Hot path: a host serves this association.
  if (const auto it = assocs_.find(*assoc_id); it != assocs_.end()) {
    AssocEntry& entry = it->second;
    ++entry.frames_in;
    entry.host->on_frame(frame, now_us);
    after_activity(entry, now_us);
    return;
  }

  // A relay binding covers it (by registered assoc or by source peer).
  if (RelayBinding* binding = relay_for(*assoc_id, from)) {
    const Direction dir = from == binding->downstream ? Direction::kReverse
                                                      : Direction::kForward;
    binding->engine->on_frame(dir, frame);
    return;
  }

  // Unknown association: accept an inbound bootstrap on demand.
  if (options_.accept_inbound &&
      wire::peek_type(frame) == wire::PacketType::kHs1) {
    Host& spawned = add_host(*assoc_id, from, /*initiator=*/false,
                             options_.config, options_.accept_host_options);
    ++accepted_handshakes_;
    AssocEntry& entry = assocs_.find(*assoc_id)->second;
    ++entry.frames_in;
    spawned.on_frame(frame, now_us);
    after_activity(entry, now_us);
    return;
  }

  ++demux_misses_;
  if (trace::enabled()) {
    std::uint8_t type = 0;
    std::uint32_t seq = 0;
    if (const auto t = wire::peek_type(frame)) {
      type = static_cast<std::uint8_t>(*t);
    }
    if (const auto hdr = wire::peek_header(frame)) seq = hdr->seq;
    trace::emit(trace::EventKind::kPacketDropped, *assoc_id, seq, type,
                trace::DropReason::kDemuxMiss);
  }
}

NodeShard::RelayBinding* NodeShard::relay_for(std::uint32_t assoc_id,
                                              net::PeerAddr from) {
  if (relays_.empty()) return nullptr;
  if (const auto it = relay_by_assoc_.find(assoc_id);
      it != relay_by_assoc_.end()) {
    return it->second;
  }
  for (const auto& binding : relays_) {
    if (binding->upstream == from || binding->downstream == from) {
      return binding.get();
    }
  }
  // Unknown source (e.g. an injector one hop away): with a single binding
  // there is no ambiguity -- treat it as forward-direction ingress so the
  // relay's flood filter sees it.
  return relays_.size() == 1 ? relays_.front().get() : nullptr;
}

bool NodeShard::needs_tick(const Host& host) {
  if (host.failed()) return false;  // budget exhausted: no retransmit storm
  if (!host.established()) {
    return host.is_initiator();  // HS1 retransmission until the HS2 lands
  }
  if (host.rekey_pending()) return true;  // rekey HS1 retransmission
  const SignerEngine* signer = host.signer();
  return signer->round_active() || signer->backlog() > 0;
}

void NodeShard::after_activity(AssocEntry& entry, std::uint64_t now_us) {
  const bool established = entry.host->established();
  if (established && !entry.was_established) {
    entry.was_established = true;
    if (callbacks_.on_established) callbacks_.on_established(entry.assoc_id);
  }
  // Incremental count: this runs per frame, so a recount over every
  // association here would make frame cost O(assocs) -- quadratic over a
  // whole run, which a 10^6-association node cannot afford.
  if (established != entry.is_established) {
    entry.is_established = established;
    if (established) {
      established_relaxed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      established_relaxed_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // Adaptivity before the rekey-transition bookkeeping: a controller
  // decision may start a rekey right here, and counting it in the same
  // pass keeps rekeys_started exact even if the handshake completes before
  // the next activity.
  if (entry.controller) maybe_adapt(entry, now_us);
  const bool rekeying = entry.host->rekey_pending();
  if (rekeying && !entry.was_rekey_pending) ++entry.rekeys_started;
  entry.was_rekey_pending = rekeying;
  arm_timer(entry, now_us);
}

void NodeShard::maybe_adapt(AssocEntry& entry, std::uint64_t now_us) {
  Host& host = *entry.host;
  if (!host.established()) return;
  // Interval gate out here (mirroring the controller's own) so the signal
  // collection below -- stat folds, health sampling, ring ingest -- is not
  // per-frame work. Each observe() call therefore carries one full window.
  const std::uint64_t interval = options_.adaptive->interval_us;
  if (entry.adapt_last_us != 0 && now_us - entry.adapt_last_us < interval) {
    return;
  }
  entry.adapt_last_us = now_us;

  AdaptSignals sig;
  const SignerStats total = host.signer_stats_total();
  sig.s1_sent = total.s1_sent - entry.adapt_seen.s1_sent;
  sig.s2_sent = total.s2_sent - entry.adapt_seen.s2_sent;
  sig.retransmits =
      (total.s1_retransmits - entry.adapt_seen.s1_retransmits) +
      (total.s2_retransmits - entry.adapt_seen.s2_retransmits) +
      (host.hs_retransmits() - entry.adapt_seen_hs_retx);
  sig.rounds_completed =
      total.rounds_completed - entry.adapt_seen.rounds_completed;
  sig.rounds_failed = total.rounds_failed - entry.adapt_seen.rounds_failed;
  sig.delivered = total.acks_received - entry.adapt_seen.acks_received;
  entry.adapt_seen = total;
  entry.adapt_seen_hs_retx = host.hs_retransmits();

  const SignerEngine* se = host.signer();
  sig.backlog = se->backlog();
  sig.round_retries = se->round_retries();
  sig.max_retries = host.config().max_retries;

  // Per-association health: the watchdog sees exactly this association's
  // progress, so its verdict replays identically at any worker count.
  trace::AssocHealthSample sample;
  sample.assoc_id = entry.assoc_id;
  sample.established = true;
  sample.failed = host.failed();
  sample.round_active = se->round_active();
  sample.round_seq = se->round_seq();
  sample.round_retries = se->round_retries();
  sample.rekeys_started = entry.rekeys_started;
  health_scratch_.clear();
  health_scratch_.push_back(sample);
  entry.health->observe(health_scratch_, now_us);
  sig.health = static_cast<std::uint8_t>(entry.health->state());

  // Span-derived delivery latency: ingest whatever the owning thread's
  // trace ring recorded since the last window (read-only cursor; in the
  // inline drive all shards read the same ring, but the histograms are
  // per-assoc so each controller only sees its own association).
  if (const trace::Ring* ring = trace::sink()) {
    adapt_spans_.ingest_new(*ring);
  }
  char label[32];
  std::snprintf(label, sizeof(label), "assoc=\"%u\"", entry.assoc_id);
  const metrics::Histogram& latency =
      adapt_registry_.histogram("alpha_span_delivery_latency_us", label);
  if (latency.count() > 0) {
    sig.p50_delivery_us = latency.quantile(0.5);
    sig.p99_delivery_us = latency.quantile(0.99);
  }

  if (const auto decision = entry.controller->observe(sig, now_us)) {
    host.request_reconfig(decision->target, now_us);
  }
  // Live alpha_adapt_* series next to the span histograms, so one scrape of
  // the registry explains the loop's state.
  adapt_registry_.counter("alpha_adapt_evaluations", label) =
      entry.controller->evaluations();
  adapt_registry_.counter("alpha_adapt_switches", label) =
      entry.controller->switches();
  adapt_registry_.counter("alpha_adapt_profile", label) =
      entry.controller->profile_index();
  adapt_registry_.counter("alpha_adapt_loss_permille", label) =
      static_cast<std::uint64_t>(entry.controller->loss_ewma() * 1000.0);
  adapt_registry_.counter("alpha_adapt_reconfigs_applied", label) =
      host.reconfigs_applied();
}

void NodeShard::arm_timer(AssocEntry& entry, std::uint64_t now_us) {
  // Backoff-aware arming: ask the host for its true next retransmission
  // deadline so a round deep into exponential backoff does not wake the
  // wheel every granularity tick for nothing. The cadence floor keeps
  // partial-batch flushing and rekey checks alive.
  std::uint64_t deadline = now_us + tick_granularity_;
  if (const auto next = entry.host->next_deadline_us();
      next.has_value() && *next > deadline) {
    deadline = *next;
  }
  // Already armed at an earlier-or-equal deadline: nothing to do. A later
  // stale wheel entry fires harmlessly -- hosts gate on elapsed time.
  if (entry.timer_armed && entry.timer_deadline_us <= deadline) return;
  entry.timer_armed = true;
  entry.timer_deadline_us = deadline;
  wheel_.arm(entry.assoc_id, deadline);
  if (wakeup_) wakeup_(deadline);
}

void NodeShard::advance_timers(std::uint64_t now_us) {
  const trace::ScopedContext tctx(options_.trace_origin, now_us);
  due_.clear();
  wheel_.advance(now_us, due_);
  for (const std::uint32_t key : due_) {
    const auto it = assocs_.find(key);
    if (it == assocs_.end()) continue;
    AssocEntry& entry = it->second;
    if (!entry.timer_armed) continue;  // lazily cancelled
    entry.timer_armed = false;
    if (!needs_tick(*entry.host)) continue;  // deadline evaporated: disarm
    ++timer_fires_;
    entry.host->on_tick(now_us);
    after_activity(entry, now_us);  // re-arms while work remains
  }
  // Keep a cadence wakeup alive while any deadline is armed. A stale early
  // wakeup costs one cheap advance() pass, nothing more. Worker-polled
  // shards (no wakeup function) call advance_timers continuously instead.
  if (wakeup_ && !wheel_.empty()) wakeup_(now_us + tick_granularity_);
}

Host* NodeShard::host(std::uint32_t assoc_id) noexcept {
  const auto it = assocs_.find(assoc_id);
  return it == assocs_.end() ? nullptr : it->second.host.get();
}

const Host* NodeShard::host(std::uint32_t assoc_id) const noexcept {
  const auto it = assocs_.find(assoc_id);
  return it == assocs_.end() ? nullptr : it->second.host.get();
}

std::size_t NodeShard::established_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, entry] : assocs_) {
    if (entry.host->established()) ++n;
  }
  return n;
}

void NodeShard::snapshot_into(NodeSnapshot& s, bool per_assoc) const {
  s.frames_in += frames_in_;
  s.frames_out += frames_out_;
  s.malformed_frames += malformed_frames_;
  s.demux_misses += demux_misses_;
  s.send_failures += send_failures_;
  s.accepted_handshakes += accepted_handshakes_;
  s.timer_fires += timer_fires_;
  s.associations += assocs_.size();
  for (const auto& [id, entry] : assocs_) {
    const bool established = entry.host->established();
    if (established) ++s.established;
    if (entry.host->failed()) ++s.failed;
    s.rekeys_started += entry.rekeys_started;
    s.corrupt_frames += entry.host->undecodable_frames();
    s.replayed_handshakes += entry.host->replayed_handshakes();
    s.duplicate_handshakes += entry.host->duplicate_handshakes();
    s.retransmits += entry.host->hs_retransmits();
    s.reconfigs_applied += entry.host->reconfigs_applied();
    if (entry.controller) {
      s.adapt_evaluations += entry.controller->evaluations();
      s.adapt_switches += entry.controller->switches();
    }
    // Lifetime totals, not the current engines': a rekey retires the
    // engines, and reading only the live pair made every rekey look like a
    // counter reset in the snapshot.
    const SignerStats signer = entry.host->signer_stats_total();
    const VerifierStats verifier = entry.host->verifier_stats_total();
    s.messages_delivered += verifier.messages_delivered;
    s.messages_forged += verifier.invalid_packets + signer.invalid_packets;
    s.duplicate_frames += verifier.duplicate_packets;
    s.retransmits += signer.s1_retransmits + signer.s2_retransmits;
    if (per_assoc) {
      AssocSnapshot a;
      a.assoc_id = id;
      a.initiator = entry.host->is_initiator();
      a.established = established;
      a.rekey_pending = entry.host->rekey_pending();
      a.failed = entry.host->failed();
      a.frames_in = entry.frames_in;
      a.frames_out = entry.frames_out;
      a.rekeys_started = entry.rekeys_started;
      a.hs_retransmits = entry.host->hs_retransmits();
      a.corrupt_frames = entry.host->undecodable_frames();
      a.replayed_handshakes = entry.host->replayed_handshakes();
      a.duplicate_handshakes = entry.host->duplicate_handshakes();
      a.mode = entry.host->config().mode;
      a.batch = entry.host->config().effective_batch();
      a.reconfigs_applied = entry.host->reconfigs_applied();
      if (entry.controller) {
        a.adapt_evaluations = entry.controller->evaluations();
        a.adapt_switches = entry.controller->switches();
        a.adapt_profile = entry.controller->profile_index();
        a.adapt_loss_ewma = entry.controller->loss_ewma();
      }
      if (const SignerEngine* se = entry.host->signer()) {
        a.round_active = se->round_active();
        a.round_seq = se->round_seq();
        a.round_retries = se->round_retries();
        a.backlog = se->backlog();
      }
      a.signer = signer;
      a.verifier = verifier;
      s.assocs.push_back(std::move(a));
    }
  }
  for (const auto& binding : relays_) {
    const RelayStats& r = binding->engine->stats();
    s.relay += r;
    s.messages_forged += r.dropped_invalid;
  }
}

}  // namespace alpha::core
