// Property sweep: reliable ALPHA delivers everything across loss rates,
// modes and hash algorithms on a jittery multi-hop path -- including
// Gilbert-Elliott bursty loss from the adversarial fault layer, where the
// exponential-backoff retransmit budget must both converge and stay bounded.
#include <gtest/gtest.h>

#include "core/path.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using net::kMillisecond;
using net::kSecond;

struct SweepParam {
  wire::Mode mode;
  double loss;
  crypto::HashAlgo algo;
};

class LossSweepTest : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, LossSweepTest,
    ::testing::Values(
        SweepParam{wire::Mode::kBase, 0.05, crypto::HashAlgo::kSha1},
        SweepParam{wire::Mode::kBase, 0.20, crypto::HashAlgo::kSha1},
        SweepParam{wire::Mode::kCumulative, 0.10, crypto::HashAlgo::kSha1},
        SweepParam{wire::Mode::kCumulative, 0.20, crypto::HashAlgo::kSha256},
        SweepParam{wire::Mode::kMerkle, 0.10, crypto::HashAlgo::kSha1},
        SweepParam{wire::Mode::kMerkle, 0.20, crypto::HashAlgo::kMmo128},
        SweepParam{wire::Mode::kCumulativeMerkle, 0.15,
                   crypto::HashAlgo::kSha1}),
    [](const auto& info) {
      std::string name;
      switch (info.param.mode) {
        case wire::Mode::kBase: name = "Base"; break;
        case wire::Mode::kCumulative: name = "C"; break;
        case wire::Mode::kMerkle: name = "M"; break;
        case wire::Mode::kCumulativeMerkle: name = "CM"; break;
      }
      name += "Loss" + std::to_string(static_cast<int>(info.param.loss * 100));
      name += crypto::to_string(info.param.algo) == "SHA-1" ? "Sha1"
              : crypto::to_string(info.param.algo) == "SHA-256" ? "Sha256"
                                                                : "Mmo";
      return name;
    });

TEST_P(LossSweepTest, AllMessagesEventuallyAckedUnderLoss) {
  const auto param = GetParam();

  net::Simulator sim;
  net::Network network{sim, /*seed=*/1337};
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 2 * kMillisecond;
  link.jitter = 3 * kMillisecond;
  link.loss_rate = param.loss;
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1, link);

  Config config;
  config.algo = param.algo;
  config.mode = param.mode;
  config.batch_size = 4;
  config.reliable = true;
  config.retransmit_on_nack = true;
  config.rto_us = 100 * kMillisecond;
  config.max_retries = 50;
  config.chain_length = 2048;

  ProtectedPath path{network, {0, 1, 2, 3}, config, 1, 99};
  path.start();

  sim.run_until(5 * kSecond);
  for (int attempt = 0; attempt < 50 && !path.initiator().established();
       ++attempt) {
    path.initiator().start();
    sim.run_until(sim.now() + 5 * kSecond);
  }
  ASSERT_TRUE(path.initiator().established()) << "handshake never completed";

  const int kMessages = 12;
  for (int i = 0; i < kMessages; ++i) {
    path.initiator().submit(crypto::Bytes(200, static_cast<std::uint8_t>(i)),
                            sim.now());
  }
  sim.run_until(sim.now() + 1500 * kSecond);

  std::size_t acked = 0;
  for (const auto& [cookie, status] : path.initiator_deliveries()) {
    if (status == DeliveryStatus::kAcked) ++acked;
  }
  EXPECT_EQ(acked, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(path.delivered_to_responder().size(),
            static_cast<std::size_t>(kMessages));
  // Integrity under loss: whatever arrived was exactly what was sent.
  for (const auto& m : path.delivered_to_responder()) {
    ASSERT_EQ(m.size(), 200u);
  }
}

// Gilbert-Elliott bursty loss: losses cluster instead of falling uniformly,
// so several consecutive retransmissions of the same round can vanish.
// Exponential backoff rides the retransmissions out of the burst; the
// budget assertions pin down that convergence does not rely on unbounded
// retries.
TEST(BurstLossSweepTest, AllMessagesAckedUnderBurstyLossWithinBudget) {
  const std::uint64_t seed = testing::chaos_seed(0xb0257);
  testing::SeedReporter reporter{seed};

  net::Simulator sim;
  net::Network network{sim, /*seed=*/1337};
  network.set_chaos_seed(seed);
  for (net::NodeId id = 0; id <= 3; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = 2 * kMillisecond;
  link.jitter = 3 * kMillisecond;
  for (net::NodeId id = 0; id < 3; ++id) network.add_link(id, id + 1, link);

  net::FaultConfig faults;
  faults.burst = net::BurstLossConfig{/*p_enter_bad=*/0.08,
                                      /*p_exit_bad=*/0.25,
                                      /*loss_good=*/0.02,
                                      /*loss_bad=*/0.80};
  for (net::NodeId id = 0; id < 3; ++id) {
    network.set_link_faults(id, id + 1, faults);
  }

  Config config;
  config.reliable = true;
  config.retransmit_on_nack = true;
  config.rto_us = 100 * kMillisecond;
  config.max_retries = 50;
  config.chain_length = 2048;

  ProtectedPath path{network, {0, 1, 2, 3}, config, 1, 99};
  path.start();
  sim.run_until(5 * kSecond);
  for (int attempt = 0; attempt < 50 && !path.initiator().established();
       ++attempt) {
    path.initiator().start();
    sim.run_until(sim.now() + 5 * kSecond);
  }
  ASSERT_TRUE(path.initiator().established()) << "handshake never completed";

  const int kMessages = 12;
  for (int i = 0; i < kMessages; ++i) {
    path.initiator().submit(crypto::Bytes(200, static_cast<std::uint8_t>(i)),
                            sim.now());
  }
  sim.run_until(sim.now() + 1500 * kSecond);

  std::size_t acked = 0;
  for (const auto& [cookie, status] : path.initiator_deliveries()) {
    if (status == DeliveryStatus::kAcked) ++acked;
  }
  EXPECT_EQ(acked, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(path.delivered_to_responder().size(),
            static_cast<std::size_t>(kMessages));

  // The burst schedule actually lost frames...
  EXPECT_GT(network.total_stats().frames_lost, 0u);

  // ...and the retransmit machinery stayed within its budget: no round and
  // no handshake may exceed max_retries attempts, and the association never
  // reached the failed state.
  const auto& stats = path.initiator().signer()->stats();
  const std::uint64_t budget =
      static_cast<std::uint64_t>(config.max_retries);
  EXPECT_LE(stats.s1_retransmits, stats.rounds_started * budget);
  EXPECT_LE(stats.s2_retransmits, stats.rounds_started * budget);
  EXPECT_LE(path.initiator().hs_retransmits(), budget);
  EXPECT_FALSE(path.initiator().failed());
  EXPECT_EQ(stats.rounds_failed, 0u);
}

}  // namespace
}  // namespace alpha::core
