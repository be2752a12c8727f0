// Pieces the workloads share: the delivery sink that feeds the oracle, the
// exact-count snapshot taken around the measurement prefix, the per-layer
// ledger, and the lower-layer replay.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/config.hpp"
#include "core/shard.hpp"
#include "harness.hpp"
#include "traced_transport.hpp"

namespace perfbench {

/// Receives authenticated payloads from the responder, checks them against
/// the oracle and records due-to-delivery latency while `record` is set.
struct DeliverySink {
  Oracle* oracle = nullptr;
  std::vector<double>* latency_us = nullptr;  // reserved up front
  bool record = false;
  double clock_scale_us = 1.0;  // node clock units per microsecond

  void on_message(std::uint32_t assoc_id, alpha::crypto::ByteView payload,
                  std::uint64_t now);
};

/// Counts taken from outside the library at one instant. Differences of two
/// of these over the measurement prefix give the exact per-op counts.
struct Counts {
  std::uint64_t ops = 0;
  std::uint64_t hash_ops = 0;
  std::uint64_t bytes_hashed = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t msgs_submitted = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t signer_hashes = 0;
  std::uint64_t verifier_hashes = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t relay_hashes = 0;
  std::uint64_t relay_forwarded = 0;
  std::uint64_t relay_frames_in = 0;
  std::uint64_t relay_s2_in = 0;

  Counts operator-(const Counts& b) const;
};

/// Folds one node snapshot into `c` (per-association detail required for
/// the host engine counters).
void add_snapshot(Counts& c, const alpha::core::NodeSnapshot& s,
                  bool relay_node);
/// Folds the process-wide and transport counters into `c`.
void add_process(Counts& c, const std::deque<Tally>& tallies);

/// Timed layers of the traced slices, in nanoseconds.
struct Ledger {
  std::uint64_t window_ns = 0;   // traced slices, wall
  std::uint64_t sim_self_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t send_frames = 0;
  std::uint64_t recv_batch_ns = 0;
  std::uint64_t relay_ns = 0;
  std::uint64_t relay_frames = 0;
  std::uint64_t host_ns = 0;
  std::uint64_t host_frames = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t app_ns = 0;      // the oracle, inside host dispatch
  std::uint64_t ops = 0;         // ops completed in the traced slices
  std::uint64_t msgs = 0;        // messages submitted in the traced slices

  std::uint64_t attributed() const {
    return sim_self_ns + send_ns + recv_batch_ns + relay_ns + host_ns +
           submit_ns + app_ns;
  }
};

/// Adds the transport tallies' traced timings to the ledger.
void add_tallies(Ledger& l, const std::deque<Tally>& tallies);

struct ReplayInput {
  const std::vector<alpha::crypto::Bytes>* frames = nullptr;
  alpha::core::Config config;
  std::uint64_t seed = 1;
};

/// Captured frames through wire::decode / wire::parse_s2 /
/// crypto::MacContext::mac, and HashChain::generate at the workload's chain
/// length; appends the wire.*, crypto.mac_ns_per_s2 and hashchain.* metrics,
/// scaled to the reference speed like every other time.
void replay_layers(const ReplayInput& in, Result& r);

/// Appends the per-layer metrics, from the exact prefix counts and the
/// traced ledger; layer times are scaled by `speed` to the reference speed.
/// Every workload reports the same set; metrics of a layer a workload's
/// shape does not exercise (relays on a direct link, the simulator over
/// sockets) read 0. A socket transport adds its own set.
struct LayerInputs {
  bool socket_transport = false;
  Counts prefix;
  Ledger ledger;
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  std::uint64_t recv_batch_calls = 0;
  std::uint64_t recv_batch_empty = 0;
  std::uint64_t recv_batch_frames = 0;
  double lost_frames_per_op = 0;
  std::vector<double> residence_us;
  double ring_in_depth_p99 = 0;
  double ring_overflows = 0;
  double lateness_us_p99 = 0;
  std::uint64_t latency_samples = 0;
  double cpu_window_ns = 0;  // if set, the ledger's denominator (threads)
  double speed = 1.0;        // host speed over the traced slices
};
void add_layer_metrics(const LayerInputs& in, Result& r);

}  // namespace perfbench
