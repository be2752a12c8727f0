// Trace completeness under seeded chaos: every frame the network accepts
// must terminate in exactly one traced fate.
//
// The invariant the observability layer sells is "no silent packet loss":
// for each send() the simulated network emits exactly one terminal event
// (kNetDelivered or kNetDropped-with-reason), plus one kNetDuplicated per
// injected extra copy. This test runs the full stack (ProtectedPath over
// the chaos fault layer with loss, duplication, corruption and a scheduled
// partition) and reconciles the trace ring against the network's own
// counters event by event.
#include <gtest/gtest.h>

#include <map>

#include "core/path.hpp"
#include "trace/trace.hpp"

namespace alpha::trace {
namespace {

using core::Config;
using crypto::Bytes;
using net::kMillisecond;
using net::kSecond;

TEST(TraceCompleteness, EveryFrameTerminatesInExactlyOneFate) {
  // Big enough that nothing wraps: reconciliation needs every event.
  Ring ring(std::size_t{1} << 18);
  install(&ring);

  net::Simulator sim;
  net::Network network{sim, /*seed=*/1337};
  network.set_chaos_seed(0xa11ce);
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 2 * kMillisecond;
  link.jitter = 3 * kMillisecond;
  link.loss_rate = 0.05;
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1, link);

  net::FaultConfig faults;
  faults.duplicate_rate = 0.1;
  faults.corrupt_rate = 0.03;
  for (net::NodeId id = 0; id < 3; ++id) {
    network.set_link_faults(id, id + 1, faults);
  }
  network.schedule_partition(1, 2, 10 * kSecond, 3 * kSecond);

  Config config;
  config.reliable = true;
  config.retransmit_on_nack = true;
  config.rto_us = 100 * kMillisecond;
  config.max_retries = 50;
  config.chain_length = 2048;
  core::ProtectedPath path{network, {0, 1, 2, 3}, config, 1, /*seed=*/99};

  path.start();
  sim.run_until(sim.now() + 5 * kSecond);
  for (int attempt = 0; attempt < 50 && !path.initiator().established();
       ++attempt) {
    path.initiator().start();
    sim.run_until(sim.now() + 5 * kSecond);
  }
  ASSERT_TRUE(path.initiator().established());

  for (int i = 0; i < 25; ++i) {
    path.initiator().submit(Bytes(64, static_cast<std::uint8_t>(i)),
                            sim.now());
    sim.run_until(sim.now() + kSecond);
  }
  sim.run_until(sim.now() + 120 * kSecond);
  install(nullptr);

  EXPECT_EQ(path.delivered_to_responder().size(), 25u);

  // No wrap: the ring retained every event it ever recorded.
  ASSERT_EQ(ring.total(), ring.size());

  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t net_duplicated = 0;
  std::uint64_t corrupted_deliveries = 0;
  std::map<DropReason, std::uint64_t> drop_reasons;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Event& e = ring.at(i);
    switch (e.kind) {
      case EventKind::kNetDelivered:
        ++net_delivered;
        if (e.reason == DropReason::kChaosCorrupted) ++corrupted_deliveries;
        break;
      case EventKind::kNetDropped:
        ++net_dropped;
        // A dropped frame without a reason is exactly the silent loss the
        // taxonomy exists to rule out.
        EXPECT_NE(e.reason, DropReason::kNone) << "unattributed drop";
        ++drop_reasons[e.reason];
        break;
      case EventKind::kNetDuplicated:
        ++net_duplicated;
        break;
      default:
        break;
    }
  }

  const net::LinkStats stats = network.total_stats();
  ASSERT_GT(stats.frames_sent, 0u);
  // The chaos schedule actually exercised every fault class.
  EXPECT_GT(stats.frames_lost, 0u);
  EXPECT_GT(stats.frames_duplicated, 0u);
  EXPECT_GT(stats.frames_corrupted, 0u);
  EXPECT_GT(stats.frames_link_down, 0u);

  // Event counts reconcile 1:1 with the network's own accounting...
  EXPECT_EQ(net_delivered, stats.frames_delivered);
  EXPECT_EQ(net_duplicated, stats.frames_duplicated);
  EXPECT_EQ(net_dropped,
            stats.frames_lost + stats.frames_oversize + stats.frames_link_down);
  EXPECT_EQ(corrupted_deliveries, stats.frames_corrupted);
  // ...and every send() has exactly one terminal fate: the duplicated
  // extras are accounted separately, so delivered + dropped == sent.
  EXPECT_EQ(net_delivered + net_dropped, stats.frames_sent);
  // Per-reason attribution matches the per-cause counters.
  EXPECT_EQ(drop_reasons[DropReason::kLost], stats.frames_lost);
  EXPECT_EQ(drop_reasons[DropReason::kLinkDown], stats.frames_link_down);
}

}  // namespace
}  // namespace alpha::trace
