#include "core/sharded_node.hpp"

#include <chrono>
#include <stdexcept>

#include "trace/prof.hpp"
#include "wire/packets.hpp"

namespace alpha::core {

namespace {
/// Frames pulled from / pushed to the transport per syscall round.
constexpr std::size_t kIoBatch = 32;
/// Idle nap for threads with nothing to do. Short enough that handshake
/// round-trips stay well under the protocol RTO, long enough that an idle
/// node does not monopolize a core (the CI containers are small).
constexpr auto kIdleNap = std::chrono::microseconds(50);

NodeShard::Options shard_options(const ShardedNode::Options& options,
                                 std::uint32_t index) {
  NodeShard::Options o = options.shard;
  // Distinct deterministic chain material per shard.
  o.seed = options.shard.seed + index;
  return o;
}
}  // namespace

ShardedNode::ShardedNode(std::unique_ptr<net::Transport> transport,
                         Options options, Callbacks callbacks)
    : transport_(std::move(transport)),
      options_(std::move(options)),
      workers_(options_.workers < 1 ? 1 : options_.workers) {
  if (transport_ == nullptr) {
    throw std::invalid_argument("ShardedNode: null transport");
  }
  threaded_ = transport_->clock_thread_safe();

  shards_.reserve(workers_);
  for (std::uint32_t i = 0; i < workers_; ++i) {
    auto sh = std::make_unique<Shard>();
    Shard* raw = sh.get();
    sh->in = std::make_unique<FrameRing>(options_.ring_capacity);
    sh->ctrl = std::make_unique<FrameRing>(options_.ring_capacity);
    sh->out = std::make_unique<FrameRing>(options_.ring_capacity);
    // Outbound frames never leave the worker thread directly: they queue on
    // the shard's out-ring for the I/O thread (threaded) or the inline
    // flush. A full ring is a send failure the shard counts -- explicit
    // backpressure instead of an unbounded queue.
    NodeShard::SendFn send = [raw](net::PeerAddr peer, crypto::Bytes frame) {
      return raw->out->try_push(FrameSlot::Kind::kFrame, peer, 0, 0,
                                crypto::ByteView{frame.data(), frame.size()});
    };
    // The relay fast path hands frames over as borrowed views: they go
    // straight from the inbound ring slot into an outbound one with no
    // intermediate Bytes allocation.
    NodeShard::SendViewFn send_view = [raw](net::PeerAddr peer,
                                            crypto::ByteView frame) {
      return raw->out->try_push(FrameSlot::Kind::kFrame, peer, 0, 0, frame);
    };
    NodeShard::WakeupFn wakeup;
    if (!threaded_) {
      // Inline drive: timer cadence rides the transport scheduler, exactly
      // like AlphaNode. (Workers poll advance_timers themselves instead.)
      wakeup = [this, raw](std::uint64_t at_us) {
        schedule_shard_wakeup(*raw, at_us);
      };
    }
    sh->node = std::make_unique<NodeShard>(i, shard_options(options_, i),
                                           callbacks, std::move(send),
                                           std::move(wakeup),
                                           std::move(send_view));
    shards_.push_back(std::move(sh));
  }

  if (!threaded_) {
    // Inline mode keeps the push model so frames are processed at their
    // virtual arrival time (a response produced at t must enter the network
    // at t, not when the current poll returns): each frame still crosses
    // the owning shard's in-ring, it is just drained immediately.
    transport_->set_receiver(
        [this](net::PeerAddr from, crypto::ByteView frame) {
          route_frame(from, frame, transport_->now_us());
        });
  }
}

ShardedNode::~ShardedNode() {
  if (running_.load(std::memory_order_relaxed)) {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : worker_threads_) {
      if (t.joinable()) t.join();
    }
    if (io_thread_.joinable()) io_thread_.join();
  }
}

Host& ShardedNode::add_host(std::uint32_t assoc_id, net::PeerAddr peer,
                            bool initiator, const Config& config,
                            const Host::Options& host_options) {
  if (running_.load(std::memory_order_relaxed)) {
    throw std::logic_error(
        "ShardedNode: associations must be added before the workers launch");
  }
  Shard& sh = *shards_[shard_for(assoc_id)];
  Host& host =
      sh.node->add_host(assoc_id, peer, initiator, config, host_options);
  {
    const std::lock_guard<std::mutex> lock(control_mu_);
    known_assocs_.insert(assoc_id);
  }
  return host;
}

Host& ShardedNode::add_initiator(std::uint32_t assoc_id, net::PeerAddr peer) {
  return add_host(assoc_id, peer, /*initiator=*/true, options_.shard.config,
                  Host::Options{});
}

Host& ShardedNode::add_initiator(std::uint32_t assoc_id, net::PeerAddr peer,
                                 const Config& config,
                                 const Host::Options& host_options) {
  return add_host(assoc_id, peer, /*initiator=*/true, config, host_options);
}

Host& ShardedNode::add_responder(std::uint32_t assoc_id, net::PeerAddr peer) {
  return add_host(assoc_id, peer, /*initiator=*/false, options_.shard.config,
                  Host::Options{});
}

Host& ShardedNode::add_responder(std::uint32_t assoc_id, net::PeerAddr peer,
                                 const Config& config,
                                 const Host::Options& host_options) {
  return add_host(assoc_id, peer, /*initiator=*/false, config, host_options);
}

void ShardedNode::add_relay(net::PeerAddr upstream, net::PeerAddr downstream,
                            std::vector<std::uint32_t> assoc_ids,
                            RelayEngine::Options relay_options,
                            NodeShard::ExtractFn on_extracted) {
  if (running_.load(std::memory_order_relaxed)) {
    throw std::logic_error(
        "ShardedNode: relays must be added before the workers launch");
  }
  for (std::uint32_t i = 0; i < workers_; ++i) {
    // Each shard's binding owns exactly the assoc ids the I/O thread will
    // route to it, so relay state never crosses a shard boundary.
    std::vector<std::uint32_t> owned;
    for (const std::uint32_t id : assoc_ids) {
      if (shard_for(id) == i) owned.push_back(id);
    }
    shards_[i]->node->add_relay(upstream, downstream, relay_options,
                                on_extracted, std::move(owned));
  }
}

void ShardedNode::ensure_running() {
  if (!threaded_ || running_.load(std::memory_order_acquire)) return;
  running_.store(true, std::memory_order_release);
  stop_.store(false, std::memory_order_relaxed);
  // std::thread construction synchronizes-with the top of each thread, so
  // every association added so far is visible to its worker without locks.
  io_thread_ = std::thread([this] { io_loop(); });
  worker_threads_.reserve(workers_);
  for (std::uint32_t i = 0; i < workers_; ++i) {
    worker_threads_.emplace_back([this, i] { worker_loop(*shards_[i]); });
  }
}

void ShardedNode::start(std::uint32_t assoc_id) {
  Shard& sh = *shards_[shard_for(assoc_id)];
  if (!threaded_) {
    sh.node->start(assoc_id, transport_->now_us());
    flush_out_ring(sh);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(control_mu_);
    if (!known_assocs_.contains(assoc_id)) {
      throw std::invalid_argument("ShardedNode::start: unknown association");
    }
  }
  ensure_running();
  while (!sh.ctrl->try_push(FrameSlot::Kind::kStart, 0, transport_->now_us(),
                            assoc_id, {})) {
    std::this_thread::sleep_for(kIdleNap);
  }
}

std::uint64_t ShardedNode::submit(std::uint32_t assoc_id,
                                  crypto::Bytes payload) {
  Shard& sh = *shards_[shard_for(assoc_id)];
  if (!threaded_) {
    const std::uint64_t cookie =
        sh.node->submit(assoc_id, std::move(payload), transport_->now_us());
    flush_out_ring(sh);
    return cookie;
  }
  std::uint64_t cookie;
  {
    const std::lock_guard<std::mutex> lock(control_mu_);
    if (!known_assocs_.contains(assoc_id)) {
      throw std::invalid_argument("ShardedNode::submit: unknown association");
    }
    // Mirror the shard's cookie numbering (1, 2, ... per association, in
    // submit order). The control ring is FIFO and this supervisor is its
    // only producer, so the mirror cannot drift from the Host's counter.
    cookie = ++next_cookie_[assoc_id];
  }
  ensure_running();
  while (!sh.ctrl->try_push(
      FrameSlot::Kind::kSubmit, 0, transport_->now_us(), assoc_id,
      crypto::ByteView{payload.data(), payload.size()})) {
    std::this_thread::sleep_for(kIdleNap);
  }
  return cookie;
}

std::size_t ShardedNode::poll(int timeout_ms) {
  if (!threaded_) {
    const std::size_t frames = transport_->poll(timeout_ms);
    for (auto& sh : shards_) flush_out_ring(*sh);
    return frames;
  }
  ensure_running();
  auto routed = [this] {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->frames_routed.load(std::memory_order_relaxed);
    }
    return n;
  };
  const std::uint64_t before = routed();
  if (timeout_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
  }
  return static_cast<std::size_t>(routed() - before);
}

std::size_t ShardedNode::established_count() const noexcept {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh->node->established_count_relaxed();
  return n;
}

std::size_t ShardedNode::association_count() {
  if (!threaded_ || !running_.load(std::memory_order_relaxed)) {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh->node->association_count();
    return n;
  }
  return snapshot(/*per_assoc=*/false).associations;
}

NodeSnapshot ShardedNode::snapshot(bool per_assoc) {
  NodeSnapshot s;
  if (!threaded_ || !running_.load(std::memory_order_relaxed)) {
    for (const auto& sh : shards_) sh->node->snapshot_into(s, per_assoc);
  } else {
    // Shard state belongs to its worker: route the request through each
    // control ring and collect the fragments from the mailboxes. Requests
    // fan out first so the shards snapshot concurrently.
    for (auto& sh : shards_) {
      sh->frag = NodeSnapshot{};
      sh->frag_per_assoc = per_assoc;
      sh->frag_ready.store(false, std::memory_order_release);
      while (!sh->ctrl->try_push(FrameSlot::Kind::kSnapshot, 0,
                                 transport_->now_us(), 0, {})) {
        std::this_thread::sleep_for(kIdleNap);
      }
    }
    for (auto& sh : shards_) {
      while (!sh->frag_ready.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(kIdleNap);
      }
      s.frames_in += sh->frag.frames_in;
      s.frames_out += sh->frag.frames_out;
      s.malformed_frames += sh->frag.malformed_frames;
      s.demux_misses += sh->frag.demux_misses;
      s.send_failures += sh->frag.send_failures;
      s.accepted_handshakes += sh->frag.accepted_handshakes;
      s.timer_fires += sh->frag.timer_fires;
      s.rekeys_started += sh->frag.rekeys_started;
      s.associations += sh->frag.associations;
      s.established += sh->frag.established;
      s.failed += sh->frag.failed;
      s.messages_delivered += sh->frag.messages_delivered;
      s.messages_forged += sh->frag.messages_forged;
      s.corrupt_frames += sh->frag.corrupt_frames;
      s.duplicate_frames += sh->frag.duplicate_frames;
      s.replayed_handshakes += sh->frag.replayed_handshakes;
      s.duplicate_handshakes += sh->frag.duplicate_handshakes;
      s.retransmits += sh->frag.retransmits;
      s.relay += sh->frag.relay;
      if (per_assoc) {
        s.assocs.insert(s.assocs.end(), sh->frag.assocs.begin(),
                        sh->frag.assocs.end());
      }
    }
  }
  for (const auto& sh : shards_) {
    s.ring_overflows += sh->in->overflows() + sh->out->overflows();
  }
  return s;
}

std::vector<ShardedNode::ShardStats> ShardedNode::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    ShardStats st;
    st.shard = i;
    st.in_depth = sh.in->size_approx();
    st.out_depth = sh.out->size_approx();
    st.in_overflows = sh.in->overflows();
    st.out_overflows = sh.out->overflows();
    st.frames_routed = sh.frames_routed.load(std::memory_order_relaxed);
    stats.push_back(st);
  }
  return stats;
}

void ShardedNode::route_frame(net::PeerAddr from, crypto::ByteView frame,
                              std::uint64_t recv_us) {
  // The only per-frame work outside the owning shard: a bounds-checked
  // 4-byte peek. Frames whose association id cannot be read go to shard 0,
  // whose own demux counts them as malformed.
  const auto assoc_id = wire::peek_assoc_id(frame);
  Shard& sh = *shards_[shard_for(assoc_id.value_or(0))];
  if (sh.in->try_push(FrameSlot::Kind::kFrame, from, recv_us,
                      assoc_id.value_or(0), frame)) {
    sh.frames_routed.fetch_add(1, std::memory_order_relaxed);
  }
  // Overflow: the ring already counted it; dropping here is equivalent to
  // loss on the wire, which the protocol's retransmissions absorb.
  if (!threaded_) drain_shard_inline(sh);
}

void ShardedNode::apply_slot(Shard& sh, const FrameSlot& slot,
                             std::uint64_t now_us) {
  switch (slot.kind) {
    case FrameSlot::Kind::kFrame:
      sh.node->on_frame(slot.peer, slot.view(), slot.time_us);
      break;
    case FrameSlot::Kind::kSubmit:
      sh.node->submit(slot.assoc_id,
                      crypto::Bytes(slot.buf.data(),
                                    slot.buf.data() + slot.size),
                      now_us);
      break;
    case FrameSlot::Kind::kStart:
      sh.node->start(slot.assoc_id, now_us);
      break;
    case FrameSlot::Kind::kSnapshot:
      sh.node->snapshot_into(sh.frag, sh.frag_per_assoc);
      sh.frag_ready.store(true, std::memory_order_release);
      break;
  }
}

void ShardedNode::drain_shard_inline(Shard& sh) {
  {
    trace::ScopedStage prof_stage(trace::Stage::kShardDrain);
    while (const FrameSlot* slot = sh.in->front()) {
      apply_slot(sh, *slot, slot->time_us);
      sh.in->pop();
    }
  }
  flush_out_ring(sh);
}

std::size_t ShardedNode::flush_out_ring(Shard& sh) {
  std::size_t total = 0;
  for (;;) {
    net::TxFrame batch[kIoBatch];
    std::size_t n = 0;
    while (n < kIoBatch) {
      const FrameSlot* slot = sh.out->peek(n);
      if (slot == nullptr) break;
      batch[n].peer = slot->peer;
      batch[n].data = slot->view();
      ++n;
    }
    if (n == 0) break;
    const std::size_t accepted = transport_->send_batch(batch, n);
    sh.out->pop_n(accepted);
    total += accepted;
    // Partial completion = transport backpressure: leave the tail queued
    // for the next pass rather than spinning on a congested socket.
    if (accepted < n) break;
  }
  return total;
}

void ShardedNode::schedule_shard_wakeup(Shard& sh, std::uint64_t at_us) {
  if (sh.wakeup_pending && sh.wakeup_at <= at_us) return;
  sh.wakeup_pending = true;
  sh.wakeup_at = at_us;
  transport_->schedule(at_us, [this, &sh] {
    sh.wakeup_pending = false;
    sh.node->advance_timers(transport_->now_us());
    flush_out_ring(sh);
  });
}

void ShardedNode::io_loop() {
  net::RxFrame rx[kIoBatch];
  while (!stop_.load(std::memory_order_relaxed)) {
    // Non-blocking drain: a blocking wait here would sit on outbound frames
    // the workers queued meanwhile. The nap below bounds idle spin instead.
    const std::size_t got = transport_->recv_batch(0, rx, kIoBatch);
    for (std::size_t i = 0; i < got; ++i) {
      route_frame(rx[i].from, rx[i].data, rx[i].recv_us);
    }
    std::size_t flushed = 0;
    for (auto& sh : shards_) flushed += flush_out_ring(*sh);
    if (got == 0 && flushed == 0) std::this_thread::sleep_for(kIdleNap);
  }
}

void ShardedNode::worker_loop(Shard& sh) {
  if (options_.worker_init) options_.worker_init(sh.node->index());
  while (!stop_.load(std::memory_order_relaxed)) {
    std::size_t did = 0;
    // Gate the profiler scope on pending work so idle poll iterations do
    // not dilute the per-drain cycle/instruction attribution.
    if (sh.ctrl->front() != nullptr || sh.in->front() != nullptr) {
      trace::ScopedStage prof_stage(trace::Stage::kShardDrain);
      // Control first: a submit enqueued before a burst of frames should see
      // the pre-burst association state, and snapshots should not starve.
      while (const FrameSlot* slot = sh.ctrl->front()) {
        apply_slot(sh, *slot, transport_->now_us());
        sh.ctrl->pop();
        ++did;
      }
      while (const FrameSlot* slot = sh.in->front()) {
        apply_slot(sh, *slot, transport_->now_us());
        sh.in->pop();
        ++did;
      }
    }
    sh.node->advance_timers(transport_->now_us());
    if (did == 0) std::this_thread::sleep_for(kIdleNap);
  }
}

}  // namespace alpha::core
