// MTU-aware batching: with Config::mtu_hint set, every control packet the
// engines emit fits the frame size, even for sensor-class 127 B MTUs.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/path.hpp"

namespace alpha::core {
namespace {

TEST(MtuConfigTest, UnlimitedWhenUnset) {
  Config c;
  c.mode = wire::Mode::kCumulative;
  c.batch_size = 100;
  EXPECT_EQ(max_batch_for_mtu(c, 0), 100u);
}

TEST(MtuConfigTest, ReliableA1BindsForCumulativeMode) {
  // 802.15.4-class: 127 B frames, 16 B MMO digests, reliable ALPHA-C.
  Config c;
  c.algo = crypto::HashAlgo::kMmo128;
  c.mode = wire::Mode::kCumulative;
  c.batch_size = 100;
  c.reliable = true;
  const std::size_t n = max_batch_for_mtu(c, 127);
  EXPECT_GE(n, 1u);
  // A1 = 10 + 4 + 17 + 1 + 2 + 2n*17 must fit 127 -> n <= 2.
  EXPECT_EQ(n, 2u);
}

TEST(MtuConfigTest, UnreliableAllowsBiggerBatches) {
  Config c;
  c.algo = crypto::HashAlgo::kMmo128;
  c.mode = wire::Mode::kCumulative;
  c.batch_size = 100;
  c.reliable = false;
  // S1 = 10+1+4+17+2 + n*17 <= 127 -> n <= 5.
  EXPECT_EQ(max_batch_for_mtu(c, 127), 5u);
}

TEST(MtuConfigTest, NeverBelowOne) {
  Config c;
  c.mode = wire::Mode::kCumulative;
  c.batch_size = 10;
  c.reliable = true;
  EXPECT_EQ(max_batch_for_mtu(c, 8), 1u);  // absurdly small MTU
}

TEST(MtuConfigTest, TreeModesCountRootsNotLeaves) {
  Config c;
  c.mode = wire::Mode::kCumulativeMerkle;
  c.merkle_group = 8;
  c.batch_size = 64;
  // One root covers 8 messages; even a small MTU supports several roots.
  EXPECT_EQ(max_batch_for_mtu(c, 256), 64u);
}

TEST(MtuIntegrationTest, SensorProfileWithPaperBatchJustWorks) {
  // The §4.1.3 profile with the paper's 5 pre-signatures per S1, reliable,
  // on a 127 B MTU: without the hint the A1 exceeds the frame and nothing
  // flows; with it the engines clamp the batch automatically.
  net::Simulator sim;
  net::Network network{sim, 3};
  for (net::NodeId id = 0; id <= 2; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 4 * net::kMillisecond;
  link.bandwidth_bps = 250'000;
  link.mtu = 127;
  for (net::NodeId id = 0; id < 2; ++id) network.add_link(id, id + 1, link);

  Config config;
  config.algo = crypto::HashAlgo::kMmo128;
  config.mac_kind = crypto::MacKind::kPrefix;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = 5;  // the paper's number, naively too big for the MTU
  config.reliable = true;
  config.chain_length = 256;
  config.mtu_hint = 127;
  config.rto_us = 500 * net::kMillisecond;

  ProtectedPath path{network, {0, 1, 2}, config, 1, 42};
  path.start();
  sim.run_until(2 * net::kSecond);
  ASSERT_TRUE(path.initiator().established());

  for (int i = 0; i < 10; ++i) {
    path.initiator().submit(crypto::Bytes(30, static_cast<std::uint8_t>(i)),
                            sim.now());
  }
  sim.run_until(sim.now() + 120 * net::kSecond);

  EXPECT_EQ(path.delivered_to_responder().size(), 10u);
  EXPECT_EQ(network.total_stats().frames_oversize, 0u);
}

TEST(MtuIntegrationTest, WithoutHintOversizeFramesAreDropped) {
  net::Simulator sim;
  net::Network network{sim, 4};
  for (net::NodeId id = 0; id <= 2; ++id) network.add_node(id);
  net::LinkConfig link;
  link.mtu = 127;
  for (net::NodeId id = 0; id < 2; ++id) network.add_link(id, id + 1, link);

  Config config;
  config.algo = crypto::HashAlgo::kMmo128;
  config.mac_kind = crypto::MacKind::kPrefix;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = 5;
  config.reliable = true;
  config.chain_length = 256;
  config.mtu_hint = 0;  // no clamping

  ProtectedPath path{network, {0, 1, 2}, config, 1, 42};
  path.start();
  sim.run_until(2 * net::kSecond);
  ASSERT_TRUE(path.initiator().established());

  for (int i = 0; i < 5; ++i) {
    path.initiator().submit(crypto::Bytes(30, 1), sim.now());
  }
  sim.run_until(sim.now() + 30 * net::kSecond);
  // The oversized A1 dies on the link; nothing completes.
  EXPECT_GT(network.total_stats().frames_oversize, 0u);
  EXPECT_TRUE(path.delivered_to_responder().empty());
}

}  // namespace
}  // namespace alpha::core
