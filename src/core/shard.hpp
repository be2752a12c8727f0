// One shard of the node runtime: a transport-free association container.
//
// NodeShard is the demux/timer/bookkeeping core that used to live inside
// AlphaNode, extracted so the same logic can run in two shapes:
//
//  * AlphaNode (core/node.hpp) -- exactly one shard bound directly to a
//    Transport: the classic single-threaded poll-loop node, API unchanged.
//  * ShardedNode (core/sharded_node.hpp) -- N shards, each owning a
//    disjoint assoc-id-hash slice of the associations, fed over SPSC rings
//    by a dedicated I/O thread (or inline, deterministically, over the
//    simulator).
//
// A shard owns everything an association needs -- the Host engines, the
// hashed TimerWheel, the chain-material RNG, per-shard counters -- and
// touches nothing shared: frames come in through on_frame(), frames go out
// through an injected SendFn, and timer wakeups are either requested from a
// scheduler callback (single-threaded drive) or polled via advance_timers()
// (worker-thread drive). Strict state locality is what makes the sharded
// runtime lock-free: two shards never share a byte of mutable state, so the
// only synchronization in the system is the ring between a shard and the
// I/O thread.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/adapt.hpp"
#include "core/host.hpp"
#include "core/relay.hpp"
#include "core/timer_wheel.hpp"
#include "crypto/random.hpp"
#include "net/transport.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/spans.hpp"

namespace alpha::core {

/// Point-in-time view of one association hosted by a node.
struct AssocSnapshot {
  std::uint32_t assoc_id = 0;
  bool initiator = false;
  bool established = false;
  bool rekey_pending = false;
  bool failed = false;                   // retransmit budget exhausted
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t rekeys_started = 0;
  std::uint64_t hs_retransmits = 0;
  std::uint64_t corrupt_frames = 0;      // failed full decode at the host
  std::uint64_t replayed_handshakes = 0; // stale handshake counters
  std::uint64_t duplicate_handshakes = 0;  // benign same-seq duplicates
  // Round progress of the signer side, for the health watchdog: a round
  // whose (seq, retries) stops changing while active is wedged.
  bool round_active = false;
  std::uint32_t round_seq = 0;
  std::uint32_t round_retries = 0;
  std::size_t backlog = 0;               // submitted, not yet in a round
  // Live protocol profile (reflects applied reconfigurations) and
  // adaptivity counters; the adapt_* fields stay zero without a controller.
  Mode mode = Mode::kBase;
  std::size_t batch = 0;                 // effective batch of the live config
  std::uint64_t reconfigs_applied = 0;
  std::uint64_t adapt_evaluations = 0;
  std::uint64_t adapt_switches = 0;
  std::size_t adapt_profile = 0;         // current ladder rung
  double adapt_loss_ewma = 0.0;
  // Association-lifetime engine stats (current + rekey-retired engines).
  SignerStats signer;      // zero until first established
  VerifierStats verifier;  // zero until first established
};

/// Aggregated node-level counters plus (optionally) per-association detail.
/// For a ShardedNode this is the scrape-time merge of every shard's local
/// counters; nothing here is maintained across shards on the hot path.
struct NodeSnapshot {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t malformed_frames = 0;    // assoc-id peek failed
  std::uint64_t demux_misses = 0;        // no association/relay/accept matched
  std::uint64_t send_failures = 0;       // transport rejected a frame
  std::uint64_t accepted_handshakes = 0; // responders spawned on demand
  std::uint64_t timer_fires = 0;         // association on_tick invocations
  std::uint64_t rekeys_started = 0;
  std::size_t associations = 0;
  std::size_t established = 0;
  std::size_t failed = 0;                // assocs whose budget ran out
  std::uint64_t messages_delivered = 0;  // across all verifiers
  std::uint64_t messages_forged = 0;     // invalid at hosts + relay drops
  std::uint64_t corrupt_frames = 0;      // failed full decode at a host
  std::uint64_t duplicate_frames = 0;    // dup S1/S2 answered idempotently
  std::uint64_t replayed_handshakes = 0; // stale handshake counters
  std::uint64_t duplicate_handshakes = 0;  // benign same-seq duplicates
  std::uint64_t retransmits = 0;         // S1 + S2 + handshake retransmits
  std::uint64_t ring_overflows = 0;      // sharded runtime: frames refused
  std::uint64_t adapt_evaluations = 0;   // controller policy evaluations
  std::uint64_t adapt_switches = 0;      // profile switches decided
  std::uint64_t reconfigs_applied = 0;   // rekey-boundary profile applications
  RelayStats relay;                      // summed over relay bindings
  std::vector<AssocSnapshot> assocs;     // filled when requested
};

class NodeShard {
 public:
  struct Options {
    /// Protocol profile for accepted inbound associations; also the source
    /// of the default timer granularity (rto_us / 2).
    Config config;
    /// Host options for accepted inbound associations.
    Host::Options accept_host_options;
    /// Spawn a responder Host when an HS1 for an unknown association
    /// arrives. Off: such frames count as demux misses.
    bool accept_inbound = false;
    /// Seeds the shard's chain-material RNG (deterministic per seed).
    std::uint64_t seed = 1;
    /// Timer wheel resolution; 0 derives config.rto_us / 2.
    std::uint64_t tick_granularity_us = 0;
    /// Timer wheel ring size (horizon = granularity * slots).
    std::size_t wheel_slots = 256;
    /// Origin id stamped on trace events emitted while this shard runs.
    std::uint8_t trace_origin = 0;
    /// Enables the closed adaptivity loop: every *initiator* host gets an
    /// AdaptiveController fed from live telemetry (signer-stat deltas, a
    /// per-association health watchdog, span-derived delivery-latency
    /// quantiles when tracing is on); decisions are staged through
    /// Host::request_reconfig and land at the next rekey boundary.
    std::optional<AdaptiveController::Options> adaptive;
  };

  struct Callbacks {
    /// Authenticated message delivered on some association.
    std::function<void(std::uint32_t assoc_id, crypto::ByteView payload)>
        on_message;
    /// Delivery outcome for a submitted message.
    std::function<void(std::uint32_t assoc_id, std::uint64_t cookie,
                       DeliveryStatus)>
        on_delivery;
    /// Association finished (re-)establishment.
    std::function<void(std::uint32_t assoc_id)> on_established;
  };

  /// Emits one frame toward `peer`; false = the transport refused it.
  using SendFn = std::function<bool(net::PeerAddr, crypto::Bytes)>;
  /// Borrowed-view variant of SendFn for the relay fast path: the frame is
  /// only valid for the duration of the call. Optional -- when absent,
  /// relay forwards fall back to SendFn with a copy. A ring-backed runtime
  /// (ShardedNode) installs one so verified frames go straight from the
  /// inbound ring slot into an outbound one, no intermediate Bytes.
  using SendViewFn = std::function<bool(net::PeerAddr, crypto::ByteView)>;
  /// Requests a wakeup (advance_timers call) at absolute time `at_us`.
  /// Optional: a worker loop that polls advance_timers() needs none.
  using WakeupFn = std::function<void(std::uint64_t at_us)>;

  NodeShard(std::uint32_t index, Options options, Callbacks callbacks,
            SendFn send, WakeupFn wakeup = nullptr,
            SendViewFn send_view = nullptr);

  NodeShard(const NodeShard&) = delete;
  NodeShard& operator=(const NodeShard&) = delete;

  using ExtractFn = std::function<void(std::uint32_t assoc_id,
                                       std::uint32_t seq,
                                       std::uint16_t msg_index,
                                       crypto::ByteView payload)>;

  Host& add_host(std::uint32_t assoc_id, net::PeerAddr peer, bool initiator,
                 const Config& config, const Host::Options& host_options);

  /// Adds a relay binding verifying-and-forwarding between `upstream` and
  /// `downstream` (see AlphaNode::add_relay). Relay state is keyed purely
  /// by association id, so bindings shard cleanly: ShardedNode registers
  /// one binding per shard, each seeing only the assoc-id slice the I/O
  /// thread routes to that shard.
  RelayEngine& add_relay(net::PeerAddr upstream, net::PeerAddr downstream,
                         RelayEngine::Options options,
                         ExtractFn on_extracted,
                         std::vector<std::uint32_t> assoc_ids);

  /// Initiator bootstrap: sends the HS1 and arms the retransmission timer.
  void start(std::uint32_t assoc_id, std::uint64_t now_us);

  /// Submits one message on an association. Returns the delivery cookie
  /// (per-association, monotonically increasing from 1 in submit order).
  std::uint64_t submit(std::uint32_t assoc_id, crypto::Bytes payload,
                       std::uint64_t now_us);

  /// Feeds one inbound frame through the demux: association host, relay
  /// binding, or on-demand accept, in that order.
  void on_frame(net::PeerAddr from, crypto::ByteView frame,
                std::uint64_t now_us);

  /// Advances the timer wheel to `now_us`, firing due associations. Safe to
  /// call at any frequency: a no-op until the next wheel slot boundary.
  void advance_timers(std::uint64_t now_us);

  Host* host(std::uint32_t assoc_id) noexcept;
  const Host* host(std::uint32_t assoc_id) const noexcept;
  bool owns(std::uint32_t assoc_id) const noexcept {
    return assocs_.contains(assoc_id);
  }
  std::size_t association_count() const noexcept { return assocs_.size(); }
  std::size_t established_count() const noexcept;
  /// Lock-free established count for cross-thread reads (updated with
  /// relaxed stores from the owning thread after every state transition).
  std::size_t established_count_relaxed() const noexcept {
    return established_relaxed_.load(std::memory_order_relaxed);
  }

  std::size_t relay_count() const noexcept { return relays_.size(); }
  RelayEngine& relay(std::size_t i) { return *relays_.at(i)->engine; }

  std::uint32_t index() const noexcept { return index_; }
  std::uint64_t tick_granularity_us() const noexcept {
    return tick_granularity_;
  }
  bool timers_armed() const noexcept { return !wheel_.empty(); }
  std::uint64_t timer_fires() const noexcept { return timer_fires_; }
  std::uint64_t frames_in() const noexcept { return frames_in_; }

  /// Folds this shard's counters (and optionally per-assoc detail) into
  /// `s`. Called from the owning thread only; ShardedNode routes snapshot
  /// requests through the shard's ring to honor that.
  void snapshot_into(NodeSnapshot& s, bool per_assoc) const;

  /// Telemetry registry backing the adaptivity loop: per-assoc span
  /// histograms the controllers read, plus live alpha_adapt_* series.
  /// Owner-thread access only (same rule as snapshot_into).
  const metrics::Registry& adapt_registry() const noexcept {
    return adapt_registry_;
  }

 private:
  struct AssocEntry {
    std::uint32_t assoc_id = 0;
    net::PeerAddr peer = 0;
    std::unique_ptr<Host> host;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t rekeys_started = 0;
    bool was_established = false;   // one-way: gates the callback
    bool is_established = false;    // tracks the host; feeds the counter
    bool was_rekey_pending = false;
    bool timer_armed = false;
    std::uint64_t timer_deadline_us = 0;  // where the wheel entry sits
    // Adaptivity (initiators with Options::adaptive only). `adapt_seen_*`
    // hold the totals at the previous observation so the controller gets
    // per-window deltas; the health monitor is per-association so its
    // verdict depends only on this association's history -- never on which
    // shard (or how many shards) it happens to run in, which is what keeps
    // controller replay bit-identical at any worker count.
    std::unique_ptr<AdaptiveController> controller;
    std::unique_ptr<trace::HealthMonitor> health;
    SignerStats adapt_seen;
    std::uint64_t adapt_seen_hs_retx = 0;
    std::uint64_t adapt_last_us = 0;
  };

  struct RelayBinding {
    std::unique_ptr<RelayEngine> engine;
    net::PeerAddr upstream = 0;
    net::PeerAddr downstream = 0;
  };

  RelayBinding* relay_for(std::uint32_t assoc_id, net::PeerAddr from);
  /// Feeds the association's controller one observation window (interval
  /// gated) and stages any decided reconfiguration on the host.
  void maybe_adapt(AssocEntry& entry, std::uint64_t now_us);
  /// Emits one relay frame: through the view-based sender when installed,
  /// else through SendFn with an owning copy.
  bool send_frame(net::PeerAddr peer, crypto::ByteView frame);
  /// Post-activity bookkeeping: established/rekey transitions + timer arm.
  void after_activity(AssocEntry& entry, std::uint64_t now_us);
  void arm_timer(AssocEntry& entry, std::uint64_t now_us);
  static bool needs_tick(const Host& host);

  std::uint32_t index_;
  Options options_;
  Callbacks callbacks_;
  SendFn send_;
  WakeupFn wakeup_;
  SendViewFn send_view_;
  crypto::HmacDrbg rng_;
  std::uint64_t tick_granularity_;

  std::map<std::uint32_t, AssocEntry> assocs_;
  std::vector<std::unique_ptr<RelayBinding>> relays_;
  std::map<std::uint32_t, RelayBinding*> relay_by_assoc_;

  TimerWheel wheel_;
  std::vector<std::uint32_t> due_;  // scratch for wheel advance

  // Adaptivity telemetry runtime: the span builder incrementally ingests
  // the owning thread's trace ring (cursor-based, read-only) and exports
  // per-assoc delivery-latency histograms into the registry the
  // controllers read. With tracing off the latency inputs stay NaN ("no
  // evidence") and the loop runs on loss/health/budget signals alone.
  metrics::Registry adapt_registry_;
  trace::SpanBuilder adapt_spans_{&adapt_registry_};
  std::vector<trace::AssocHealthSample> health_scratch_;

  // Shard-local counters (per-assoc ones live in the entries). Plain
  // integers: only the owning thread writes or reads them, except the one
  // relaxed atomic mirror kept for cheap cross-thread progress checks.
  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t malformed_frames_ = 0;
  std::uint64_t demux_misses_ = 0;
  std::uint64_t send_failures_ = 0;
  std::uint64_t accepted_handshakes_ = 0;
  std::uint64_t timer_fires_ = 0;
  std::atomic<std::size_t> established_relaxed_{0};
};

}  // namespace alpha::core
