// Rekeying interactions with relays and duplex traffic: relays observe the
// rekey handshake in transit and keep authenticating after the rotation.
#include <gtest/gtest.h>

#include "core/path.hpp"

namespace alpha::core {
namespace {

using net::kMillisecond;
using net::kSecond;

TEST(RekeyRelayTest, RelaysFollowChainRotation) {
  net::Simulator sim;
  net::Network network{sim, 5};
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1);

  Config config;
  config.chain_length = 32;    // ~15 rounds per chain
  config.rekey_threshold = 8;  // forces several rotations below
  config.rto_us = 50 * kMillisecond;

  ProtectedPath path{network, {0, 1, 2, 3}, config, 1, 55};
  path.start();
  sim.run_until(kSecond);
  ASSERT_TRUE(path.initiator().established());

  // 60 messages >> one chain's capacity.
  for (int i = 0; i < 60; ++i) {
    path.initiator().submit(crypto::Bytes(100, static_cast<std::uint8_t>(i)),
                            sim.now());
    sim.run_until(sim.now() + 200 * kMillisecond);
  }
  sim.run_until(sim.now() + 30 * kSecond);

  EXPECT_EQ(path.delivered_to_responder().size(), 60u);
  for (std::size_t i = 0; i < path.relay_count(); ++i) {
    // Relays verified everything across multiple chain generations.
    EXPECT_EQ(path.relay(i).stats().dropped_invalid, 0u);
    EXPECT_EQ(path.relay(i).stats().messages_extracted, 60u);
  }
}

TEST(RekeyRelayTest, DuplexTrafficSurvivesRotation) {
  net::Simulator sim;
  net::Network network{sim, 6};
  for (net::NodeId id = 0; id <= 2; ++id) network.add_node(id);
  for (net::NodeId id = 0; id < 2; ++id) network.add_link(id, id + 1);

  Config config;
  config.chain_length = 32;
  config.rekey_threshold = 8;
  config.rto_us = 50 * kMillisecond;

  ProtectedPath path{network, {0, 1, 2}, config, 1, 77};
  path.start();
  sim.run_until(kSecond);

  for (int i = 0; i < 40; ++i) {
    path.initiator().submit(crypto::Bytes(50, 0xaa), sim.now());
    path.responder().submit(crypto::Bytes(50, 0xbb), sim.now());
    sim.run_until(sim.now() + 300 * kMillisecond);
  }
  sim.run_until(sim.now() + 30 * kSecond);

  // Both directions complete: the rotation replaces chains for both flows.
  EXPECT_EQ(path.delivered_to_responder().size(), 40u);
  EXPECT_EQ(path.delivered_to_initiator().size(), 40u);
}

TEST(RekeyRelayTest, RekeySurvivesLossyPath) {
  net::Simulator sim;
  net::Network network{sim, 7};
  for (net::NodeId id = 0; id <= 2; ++id) network.add_node(id);
  net::LinkConfig lossy;
  lossy.loss_rate = 0.15;
  lossy.latency = 2 * kMillisecond;
  for (net::NodeId id = 0; id < 2; ++id) network.add_link(id, id + 1, lossy);

  Config config;
  config.chain_length = 32;
  config.rekey_threshold = 8;
  config.reliable = true;
  config.retransmit_on_nack = true;
  config.rto_us = 100 * kMillisecond;
  config.max_retries = 40;

  ProtectedPath path{network, {0, 1, 2}, config, 1, 88};
  path.start();
  sim.run_until(30 * kSecond);  // handshake retransmission is automatic now
  ASSERT_TRUE(path.initiator().established());

  for (int i = 0; i < 30; ++i) {
    path.initiator().submit(crypto::Bytes(80, 0x11), sim.now());
    sim.run_until(sim.now() + 2 * kSecond);
  }
  sim.run_until(sim.now() + 500 * kSecond);

  std::size_t acked = 0;
  for (const auto& [cookie, status] : path.initiator_deliveries()) {
    if (status == DeliveryStatus::kAcked) ++acked;
  }
  // Rekey + reliable mode: everything eventually lands despite loss and
  // multiple chain rotations.
  EXPECT_EQ(acked, 30u);
  EXPECT_EQ(path.delivered_to_responder().size(), 30u);
}

}  // namespace
}  // namespace alpha::core
