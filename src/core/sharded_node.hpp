// Multi-core node runtime: N NodeShards behind lock-free SPSC rings.
//
// AlphaNode (core/node.hpp) drives one NodeShard from one thread -- fine for
// a simulator node or a small endpoint, but a single core caps how many
// associations one host can serve. ShardedNode is the supervisor/worker
// shape of the same runtime:
//
//   transport -> [I/O thread] --peek assoc id, shard_of()--> in-ring[i]
//                                                             |
//                                        [worker i]  <--------+
//                                            | on_frame/advance_timers
//                                            v
//                            out-ring[i] -> [I/O thread] -> send_batch()
//
// One dedicated I/O thread owns the transport: it drains inbound frames
// with batched syscalls (recvmmsg on UDP), demuxes each by the bounds-
// checked association-id peek (wire::peek_assoc_id -- no decode, no crypto),
// and hands it to the owning shard over a fixed-capacity SPSC ring. Each of
// the N workers owns one NodeShard -- a disjoint assoc-id-hash slice of the
// associations (core::shard_of) with its own timer wheel, RNG, and counters
// -- so workers share no mutable state at all; the rings are the only
// synchronization in the system, and they are wait-free on both sides.
// Outbound frames ride shard-owned out-rings back to the I/O thread, which
// gathers them into sendmmsg batches (partial kernel completions release
// exactly the accepted prefix; the tail stays queued).
//
// Backpressure is explicit, never blocking: a full in-ring drops the frame
// and counts an overflow -- indistinguishable from network loss, so the
// protocol's retransmission machinery recovers, exactly as under chaos. A
// full out-ring surfaces as a send failure on the shard.
//
// Two drive modes, selected by Transport::clock_thread_safe():
//
//  * threaded (UDP): real threads as drawn above. Engaged lazily on the
//    first start()/submit()/poll()/snapshot() so association setup needs no
//    locks. Callbacks fire on worker threads.
//  * inline (simulator): the virtual clock cannot be shared across threads,
//    so one thread plays every role deterministically -- frames still flow
//    through the same rings, the same shard_of demux, and the same
//    per-shard wheels, in virtual-arrival order. Same code, minus the
//    nondeterminism: seeded runs replay bit-identically.
//
// Scrape-time aggregation: snapshot() merges per-shard counters on demand
// (threaded mode round-trips a request through each shard's ring so shard
// state is only ever touched by its owner); nothing cross-shard is
// maintained on the hot path. Rare control operations (start, submit,
// snapshot requests) ride a third, supervisor->shard ring -- they cannot
// share the frame in-ring without giving it two producers -- multiplexed by
// FrameSlot::Kind and drained by the worker ahead of frames each pass.
//
// Relay bindings shard by association id, exactly like hosts: relay state
// (chain verifiers, buffered pre-signatures, round memos) is keyed purely
// by assoc id, so add_relay() registers one binding per shard and the I/O
// thread's shard_of() demux routes every frame of an association -- and
// therefore all of its relay state -- to one owning worker. N workers
// verify-and-forward concurrently with zero shared state; forwarded frames
// ride the same out-rings and sendmmsg batches as host traffic. Each binding
// is one RelayEngine deciding frame by frame; the I/O thread's sendmmsg
// gathering is the only batching on the path.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/shard.hpp"
#include "core/spsc_ring.hpp"
#include "net/transport.hpp"

namespace alpha::core {

class ShardedNode {
 public:
  struct Options {
    /// Per-shard runtime options. `seed` is the node seed; shard i derives
    /// seed + i so shards draw distinct chain material deterministically.
    NodeShard::Options shard;
    /// Number of shards (= worker threads in threaded mode). Clamped to 1+.
    std::uint32_t workers = 1;
    /// Capacity of each in/out ring (rounded up to a power of two).
    std::size_t ring_capacity = 1024;
    /// Runs at the top of each worker thread (threaded mode only), before
    /// any frame is processed -- the hook for installing thread-local trace
    /// sinks. Called with the shard index.
    std::function<void(std::uint32_t shard_index)> worker_init;
  };

  using Callbacks = NodeShard::Callbacks;

  /// Per-shard queue instrumentation, cheap enough to scrape live.
  struct ShardStats {
    std::uint32_t shard = 0;
    std::size_t in_depth = 0;        // frames queued toward the shard
    std::size_t out_depth = 0;       // frames queued toward the transport
    std::uint64_t in_overflows = 0;  // inbound frames dropped (ring full)
    std::uint64_t out_overflows = 0; // outbound frames refused (ring full)
    std::uint64_t frames_routed = 0; // inbound frames demuxed to this shard
  };

  /// Takes ownership of the transport. In threaded mode (transport clock is
  /// thread-safe) worker threads launch lazily on the first
  /// start()/submit()/poll()/snapshot(); all add_* calls must happen before
  /// that. Callbacks fire on worker threads in threaded mode.
  ShardedNode(std::unique_ptr<net::Transport> transport, Options options,
              Callbacks callbacks = {});
  ~ShardedNode();

  ShardedNode(const ShardedNode&) = delete;
  ShardedNode& operator=(const ShardedNode&) = delete;

  /// Adds an initiator-side association toward `peer` on its owning shard.
  /// Only before the workers launch (throws std::logic_error after).
  Host& add_initiator(std::uint32_t assoc_id, net::PeerAddr peer);
  Host& add_initiator(std::uint32_t assoc_id, net::PeerAddr peer,
                      const Config& config,
                      const Host::Options& host_options);

  /// Adds a pre-provisioned responder-side association toward `peer`.
  Host& add_responder(std::uint32_t assoc_id, net::PeerAddr peer);
  Host& add_responder(std::uint32_t assoc_id, net::PeerAddr peer,
                      const Config& config,
                      const Host::Options& host_options);

  /// Adds a relay binding between `upstream` and `downstream` to every
  /// shard; each shard's binding is registered for the slice of `assoc_ids`
  /// that hashes to it, so ownership matches the I/O thread's routing.
  /// Only before the workers launch (throws std::logic_error after).
  void add_relay(net::PeerAddr upstream, net::PeerAddr downstream,
                 std::vector<std::uint32_t> assoc_ids,
                 RelayEngine::Options relay_options = {},
                 NodeShard::ExtractFn on_extracted = nullptr);

  /// Initiator bootstrap. Threaded mode: enqueued to the owning shard.
  void start(std::uint32_t assoc_id);

  /// Submits one message. Returns the delivery cookie (per-association,
  /// monotonically increasing from 1 in submit order -- mirrored by the
  /// supervisor in threaded mode, where the actual submit runs on the
  /// shard; the ring's FIFO order makes the mirror exact).
  std::uint64_t submit(std::uint32_t assoc_id, crypto::Bytes payload);

  /// Inline mode: drives the transport (frames + timers) for up to
  /// `timeout_ms` of virtual time and returns frames processed. Threaded
  /// mode: the I/O and worker threads drive themselves; poll() waits until
  /// this node has routed at least one more inbound frame or `timeout_ms`
  /// has elapsed, and returns how many frames were routed meanwhile.
  std::size_t poll(int timeout_ms);

  std::uint32_t workers() const noexcept { return workers_; }
  bool threaded() const noexcept { return threaded_; }
  /// Which shard serves `assoc_id` (stable across rekeys by construction).
  std::uint32_t shard_for(std::uint32_t assoc_id) const noexcept {
    return shard_of(assoc_id, workers_);
  }

  /// Lock-free progress probe: shards' established counts via relaxed
  /// atomics. Safe from any thread at any time.
  std::size_t established_count() const noexcept;
  /// O(shards) in inline mode; one snapshot round-trip in threaded mode.
  std::size_t association_count();

  /// Merged node-level counters (+ per-assoc detail on request), plus the
  /// sum of ring overflows. Threaded mode round-trips a snapshot request
  /// through every shard's ring.
  NodeSnapshot snapshot(bool per_assoc = false);

  /// Live per-shard queue depths and overflow counters.
  std::vector<ShardStats> shard_stats() const;

  std::uint64_t now_us() const { return transport_->now_us(); }
  net::Transport& transport() noexcept { return *transport_; }

 private:
  struct Shard;

  Host& add_host(std::uint32_t assoc_id, net::PeerAddr peer, bool initiator,
                 const Config& config, const Host::Options& host_options);
  void ensure_running();
  void route_frame(net::PeerAddr from, crypto::ByteView frame,
                   std::uint64_t recv_us);
  /// Drains one shard's in-ring on the current thread (inline mode).
  void drain_shard_inline(Shard& sh);
  /// Applies one ring entry to its shard (both modes; shard-owner thread).
  void apply_slot(Shard& sh, const FrameSlot& slot, std::uint64_t now_us);
  /// Gathers one batch from `sh`'s out-ring into send_batch, releasing the
  /// accepted prefix. Returns frames sent.
  std::size_t flush_out_ring(Shard& sh);
  void schedule_shard_wakeup(Shard& sh, std::uint64_t at_us);
  void io_loop();
  void worker_loop(Shard& sh);

  // One shard's world: the NodeShard plus its two rings and the snapshot
  // mailbox. Workers touch only their own Shard; the I/O thread touches
  // only ring endpoints.
  struct Shard {
    std::unique_ptr<NodeShard> node;
    std::unique_ptr<FrameRing> in;    // I/O thread -> worker (frames)
    std::unique_ptr<FrameRing> ctrl;  // supervisor -> worker (control ops)
    std::unique_ptr<FrameRing> out;   // worker -> I/O thread
    std::atomic<std::uint64_t> frames_routed{0};
    // Snapshot mailbox: supervisor arms `ready=false`, pushes a kSnapshot
    // slot, spins; the worker fills `frag` and releases `ready`.
    NodeSnapshot frag;
    bool frag_per_assoc = false;
    std::atomic<bool> frag_ready{true};
    // Inline mode: per-shard wakeup dedup (mirrors AlphaNode's).
    bool wakeup_pending = false;
    std::uint64_t wakeup_at = 0;
  };

  std::unique_ptr<net::Transport> transport_;
  Options options_;
  std::uint32_t workers_;
  bool threaded_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Supervisor-side bookkeeping (control path only, never per-frame).
  std::mutex control_mu_;
  std::set<std::uint32_t> known_assocs_;
  std::map<std::uint32_t, std::uint64_t> next_cookie_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread io_thread_;
  std::vector<std::thread> worker_threads_;
};

}  // namespace alpha::core
