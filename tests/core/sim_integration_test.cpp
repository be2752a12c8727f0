// End-to-end integration over the discrete-event network: multi-hop paths,
// lossy links, attacks, and the paper's latency properties.
#include <gtest/gtest.h>

#include "core/attackers.hpp"
#include "core/path.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using net::kMillisecond;
using net::kSecond;

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct Scenario {
  explicit Scenario(std::size_t hops, net::LinkConfig link = {},
                    Config config = {}, std::uint64_t net_seed = 1)
      : sim(), network(sim, net_seed) {
    std::vector<net::NodeId> nodes;
    for (std::size_t i = 0; i <= hops; ++i) {
      network.add_node(static_cast<net::NodeId>(i));
      nodes.push_back(static_cast<net::NodeId>(i));
    }
    for (std::size_t i = 0; i < hops; ++i) {
      network.add_link(nodes[i], nodes[i + 1], link);
    }
    path.emplace(network, nodes, config, /*assoc_id=*/1, /*seed=*/42);
  }

  net::Simulator sim;
  net::Network network;
  std::optional<ProtectedPath> path;
};

TEST(SimIntegrationTest, FourHopPathDelivers) {
  // The paper's Fig. 1 topology: s, r1, r2, r3, v.
  Scenario sc{4};
  sc.path->start();
  sc.sim.run_until(2 * kSecond);
  ASSERT_TRUE(sc.path->initiator().established());

  sc.path->initiator().submit(msg("protected path payload"), sc.sim.now());
  sc.sim.run_until(4 * kSecond);

  ASSERT_EQ(sc.path->delivered_to_responder().size(), 1u);
  EXPECT_EQ(sc.path->delivered_to_responder()[0], msg("protected path payload"));
  for (std::size_t i = 0; i < sc.path->relay_count(); ++i) {
    EXPECT_EQ(sc.path->relay(i).stats().dropped_invalid, 0u);
    EXPECT_EQ(sc.path->relay(i).stats().messages_extracted, 1u);
  }
}

TEST(SimIntegrationTest, ReliableDeliveryOverLossyPath) {
  net::LinkConfig lossy;
  lossy.latency = 2 * kMillisecond;
  lossy.jitter = 2 * kMillisecond;
  lossy.loss_rate = 0.15;

  Config config;
  config.reliable = true;
  config.rto_us = 100 * kMillisecond;
  config.max_retries = 30;

  Scenario sc{3, lossy, config, /*net_seed=*/99};
  sc.path->start();
  sc.sim.run_until(10 * kSecond);
  // Handshake is not retransmitted by design; if lost, re-start it.
  for (int attempt = 0; attempt < 20 && !sc.path->initiator().established();
       ++attempt) {
    sc.path->initiator().start();
    sc.sim.run_until(sc.sim.now() + 5 * kSecond);
  }
  ASSERT_TRUE(sc.path->initiator().established());

  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    sc.path->initiator().submit(msg("reliable " + std::to_string(i)),
                                sc.sim.now());
  }
  sc.sim.run_until(sc.sim.now() + 400 * kSecond);

  std::size_t acked = 0;
  for (const auto& [cookie, status] : sc.path->initiator_deliveries()) {
    if (status == DeliveryStatus::kAcked) ++acked;
  }
  EXPECT_EQ(acked, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(sc.path->delivered_to_responder().size(),
            static_cast<std::size_t>(kMessages));
  EXPECT_GT(sc.path->initiator().signer()->stats().s1_retransmits +
                sc.path->initiator().signer()->stats().s2_retransmits,
            0u);
}

TEST(SimIntegrationTest, MinimumLatencyIs1Point5Rtt) {
  // §3.5: data arrives at the verifier no earlier than 1.5 RTT after
  // submission (S1 -> A1 -> S2 = 3 one-way trips).
  net::LinkConfig link;
  link.latency = 10 * kMillisecond;  // per hop
  link.jitter = 0;
  link.bandwidth_bps = 1'000'000'000;  // negligible serialization

  Scenario sc{2, link};
  sc.path->start();
  sc.sim.run_until(kSecond);
  ASSERT_TRUE(sc.path->initiator().established());

  const net::SimTime submit_time = sc.sim.now();
  sc.path->initiator().submit(msg("timed"), submit_time);

  // One-way = 2 hops * 10 ms = 20 ms; 3 one-way trips = 60 ms = 1.5 RTT.
  sc.sim.run_until(submit_time + 59 * kMillisecond);
  EXPECT_TRUE(sc.path->delivered_to_responder().empty());
  sc.sim.run_until(submit_time + 65 * kMillisecond);
  EXPECT_EQ(sc.path->delivered_to_responder().size(), 1u);
}

TEST(SimIntegrationTest, ReliableAckWithin2Rtt) {
  // §3.2.2: pre-acks deliver the confirmation after 2 RTT, not 3.
  net::LinkConfig link;
  link.latency = 10 * kMillisecond;
  link.jitter = 0;
  link.bandwidth_bps = 1'000'000'000;

  Config config;
  config.reliable = true;

  Scenario sc{2, link, config};
  sc.path->start();
  sc.sim.run_until(kSecond);
  ASSERT_TRUE(sc.path->initiator().established());

  const net::SimTime submit_time = sc.sim.now();
  sc.path->initiator().submit(msg("timed ack"), submit_time);

  // 4 one-way trips (S1, A1, S2, A2) = 80 ms = 2 RTT.
  sc.sim.run_until(submit_time + 79 * kMillisecond);
  EXPECT_TRUE(sc.path->initiator_deliveries().empty());
  sc.sim.run_until(submit_time + 85 * kMillisecond);
  ASSERT_EQ(sc.path->initiator_deliveries().size(), 1u);
  EXPECT_EQ(sc.path->initiator_deliveries()[0].second, DeliveryStatus::kAcked);
}

TEST(SimIntegrationTest, FloodStoppedAtFirstRelay) {
  // §3.5: unsolicited data cannot propagate beyond its entry relay.
  Scenario sc{3};
  sc.path->start();
  sc.sim.run_until(kSecond);
  ASSERT_TRUE(sc.path->initiator().established());

  // Attacker node adjacent to relay 1 (node id 1).
  sc.network.add_node(100);
  sc.network.add_link(100, 1);
  launch_s2_flood(sc.network, /*attacker=*/100, /*next_hop=*/1,
                  /*assoc_id=*/1, /*count=*/50, /*payload_size=*/800,
                  /*interval=*/10 * kMillisecond, /*seed=*/7);
  sc.sim.run_until(sc.sim.now() + 5 * kSecond);

  // All flood frames died at the first relay.
  EXPECT_EQ(sc.path->relay(0).stats().dropped_unsolicited, 50u);
  // Nothing reached the responder's application or the later links.
  EXPECT_TRUE(sc.path->delivered_to_responder().empty());
  EXPECT_EQ(sc.network.link_stats(2, 3).frames_sent,
            sc.network.link_stats(3, 2).frames_sent);
}

TEST(SimIntegrationTest, TamperingRelayDetectedDownstream) {
  // Insider attack: relay r1 (node 1) tampers with payloads. The next honest
  // relay drops the modified S2 (end-to-end integrity checkable on-path).
  net::Simulator sim;
  net::Network network{sim, 1};
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1);

  Config config;
  ProtectedPath path{network, {0, 1, 2, 3}, config, 1, 42};

  // Hijack node 1's handler: tamper S2 frames, forward everything verbatim
  // otherwise (a malicious relay that does not even run ALPHA checks).
  network.set_handler(1, [&](net::NodeId from, crypto::ByteView frame) {
    const net::NodeId next = from == 0 ? 2 : 0;
    network.send(1, next, tamper_s2_payload(frame));
  });

  path.start();
  sim.run_until(kSecond);
  ASSERT_TRUE(path.initiator().established());

  path.initiator().submit(msg("do not touch"), sim.now());
  sim.run_until(2 * kSecond);

  EXPECT_TRUE(path.delivered_to_responder().empty());
  // The honest relay at node 2 (relay index 1) caught the modification.
  EXPECT_GT(path.relay(1).stats().dropped_invalid, 0u);
}

TEST(SimIntegrationTest, MerkleModeBulkTransferOverJitteryPath) {
  net::LinkConfig link;
  link.latency = 5 * kMillisecond;
  link.jitter = 10 * kMillisecond;  // heavy reordering

  Config config;
  config.mode = wire::Mode::kMerkle;
  config.batch_size = 16;

  Scenario sc{3, link, config};
  sc.path->start();
  sc.sim.run_until(2 * kSecond);
  ASSERT_TRUE(sc.path->initiator().established());

  for (int i = 0; i < 64; ++i) {
    sc.path->initiator().submit(Bytes(600, static_cast<std::uint8_t>(i)),
                                sc.sim.now());
  }
  sc.sim.run_until(sc.sim.now() + 60 * kSecond);

  // Out-of-order S2 delivery is fine: each packet verifies independently.
  EXPECT_EQ(sc.path->delivered_to_responder().size(), 64u);
  for (std::size_t i = 0; i < sc.path->relay_count(); ++i) {
    EXPECT_EQ(sc.path->relay(i).stats().dropped_invalid, 0u);
  }
}

TEST(SimIntegrationTest, DuplexTrafficOnOnePath) {
  Scenario sc{2};
  sc.path->start();
  sc.sim.run_until(kSecond);

  sc.path->initiator().submit(msg("fwd"), sc.sim.now());
  sc.path->responder().submit(msg("rev"), sc.sim.now());
  sc.sim.run_until(2 * kSecond);

  ASSERT_EQ(sc.path->delivered_to_responder().size(), 1u);
  ASSERT_EQ(sc.path->delivered_to_initiator().size(), 1u);
  EXPECT_EQ(sc.path->delivered_to_responder()[0], msg("fwd"));
  EXPECT_EQ(sc.path->delivered_to_initiator()[0], msg("rev"));
}

TEST(SimIntegrationTest, ManyRoundsSustained) {
  Config config;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = 5;
  config.chain_length = 512;

  Scenario sc{2, net::LinkConfig{}, config};
  sc.path->start();
  sc.sim.run_until(kSecond);

  for (int i = 0; i < 200; ++i) {
    sc.path->initiator().submit(msg("sustained " + std::to_string(i)),
                                sc.sim.now());
  }
  sc.sim.run_until(sc.sim.now() + 200 * kSecond);
  EXPECT_EQ(sc.path->delivered_to_responder().size(), 200u);
  EXPECT_EQ(sc.path->initiator().signer()->stats().rounds_completed, 40u);
}

TEST(SimIntegrationTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    net::LinkConfig lossy;
    lossy.loss_rate = 0.2;
    lossy.jitter = 5 * kMillisecond;
    Config config;
    config.reliable = true;
    config.rto_us = 50 * kMillisecond;
    config.max_retries = 20;
    Scenario sc{2, lossy, config, /*net_seed=*/1234};
    sc.path->start();
    sc.sim.run_until(5 * kSecond);
    for (int attempt = 0; attempt < 20 && !sc.path->initiator().established();
         ++attempt) {
      sc.path->initiator().start();
      sc.sim.run_until(sc.sim.now() + 5 * kSecond);
    }
    for (int i = 0; i < 10; ++i) {
      sc.path->initiator().submit(msg("d" + std::to_string(i)), sc.sim.now());
    }
    sc.sim.run_until(sc.sim.now() + 300 * kSecond);
    return std::make_tuple(sc.path->delivered_to_responder().size(),
                           sc.network.total_stats().frames_delivered,
                           sc.sim.now());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace alpha::core
