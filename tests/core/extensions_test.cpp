// Tests for the protocol extensions: ALPHA-C+M combined mode (§3.3.2),
// selective repeat on nacks (§3.3.3), and chain rekeying.
#include <gtest/gtest.h>

#include "core/host.hpp"
#include "core/relay.hpp"
#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;
using testing::PacketBus;

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Reuse the engine-pair harness shape from engine_test.cpp.
struct EnginePair {
  explicit EnginePair(Config config, std::uint64_t seed = 7)
      : rng(seed),
        sig_chain(hashchain::HashChain::generate(
            config.algo, hashchain::ChainTagging::kRoleBound, rng,
            config.chain_length)),
        ack_chain(hashchain::HashChain::generate(
            config.algo, hashchain::ChainTagging::kRoleBound, rng,
            config.chain_length)) {
    SignerEngine::Callbacks scb;
    scb.send = bus.sender(1);
    scb.on_delivery = [this](std::uint64_t cookie, DeliveryStatus status) {
      deliveries.emplace_back(cookie, status);
    };
    signer.emplace(config, 1, sig_chain, ack_chain.anchor(),
                   ack_chain.length(), std::move(scb));

    VerifierEngine::Callbacks vcb;
    vcb.send = bus.sender(0);
    vcb.on_message = [this](std::uint32_t, std::uint16_t index,
                            ByteView payload) {
      received.emplace_back(index, Bytes(payload.begin(), payload.end()));
    };
    verifier.emplace(config, 1, ack_chain, sig_chain.anchor(),
                     sig_chain.length(), std::move(vcb), rng);

    bus.attach(0, [this](ByteView frame) {
      const auto packet = wire::decode(frame);
      ASSERT_TRUE(packet.has_value());
      if (const auto* a1 = std::get_if<wire::A1Packet>(&*packet)) {
        signer->on_a1(*a1, now);
      } else if (const auto* a2 = std::get_if<wire::A2Packet>(&*packet)) {
        signer->on_a2(*a2, now);
      }
    });
    bus.attach(1, [this](ByteView frame) {
      if (wire::peek_type(frame) == wire::PacketType::kS2) {
        const auto s2 = wire::parse_s2(frame);
        ASSERT_TRUE(s2.has_value());
        verifier->on_s2(*s2);
        return;
      }
      const auto packet = wire::decode(frame);
      ASSERT_TRUE(packet.has_value());
      if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
        verifier->on_s1(*s1);
      }
    });
  }

  HmacDrbg rng;
  hashchain::HashChain sig_chain;
  hashchain::HashChain ack_chain;
  PacketBus bus;
  std::optional<SignerEngine> signer;
  std::optional<VerifierEngine> verifier;
  std::uint64_t now = 0;
  std::vector<std::pair<std::uint64_t, DeliveryStatus>> deliveries;
  std::vector<std::pair<std::uint16_t, Bytes>> received;
};

// ---------------------------------------------------------------------------
// ALPHA-C+M combined mode
// ---------------------------------------------------------------------------

TEST(CumulativeMerkleTest, BatchDeliversAllMessages) {
  Config config;
  config.mode = wire::Mode::kCumulativeMerkle;
  config.batch_size = 16;
  config.merkle_group = 4;  // 4 roots of 4 leaves each
  EnginePair pair{config};

  for (int i = 0; i < 16; ++i) {
    pair.signer->submit(msg("cm " + std::to_string(i)), 0);
  }
  pair.bus.pump();
  ASSERT_EQ(pair.received.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(pair.received[static_cast<std::size_t>(i)].second,
              msg("cm " + std::to_string(i)));
  }
  EXPECT_EQ(pair.signer->stats().rounds_completed, 1u);  // one S1 for all 16
}

TEST(CumulativeMerkleTest, S1CarriesMultipleRoots) {
  Config config;
  config.mode = wire::Mode::kCumulativeMerkle;
  config.batch_size = 16;
  config.merkle_group = 4;
  EnginePair pair{config};

  std::optional<wire::S1Packet> seen_s1;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS1) {
      seen_s1 = std::get<wire::S1Packet>(*wire::decode(frame));
    }
    return true;
  });
  for (int i = 0; i < 16; ++i) pair.signer->submit(msg("x"), 0);
  pair.bus.pump();

  ASSERT_TRUE(seen_s1.has_value());
  EXPECT_EQ(seen_s1->mode, wire::Mode::kCumulativeMerkle);
  EXPECT_EQ(seen_s1->merkle_roots.size(), 4u);
  EXPECT_EQ(seen_s1->group_size, 4u);
  EXPECT_EQ(seen_s1->leaf_count, 16u);
}

TEST(CumulativeMerkleTest, ShallowTreesShrinkPaths) {
  // The combination's point (§3.3.2): depth log2(group) instead of
  // log2(batch): group 4 -> 2 siblings per S2 instead of 4 for batch 16.
  Config config;
  config.mode = wire::Mode::kCumulativeMerkle;
  config.batch_size = 16;
  config.merkle_group = 4;
  EnginePair pair{config};

  std::size_t max_path = 0;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      const auto s2 = std::get<wire::S2Packet>(*wire::decode(frame));
      if (s2.path.has_value()) {
        max_path = std::max(max_path, s2.path->siblings.size());
      }
    }
    return true;
  });
  for (int i = 0; i < 16; ++i) pair.signer->submit(msg("y"), 0);
  pair.bus.pump();
  EXPECT_EQ(max_path, 2u);
  EXPECT_EQ(pair.received.size(), 16u);
}

TEST(CumulativeMerkleTest, PartialLastGroup) {
  Config config;
  config.mode = wire::Mode::kCumulativeMerkle;
  config.batch_size = 10;  // 3 groups: 4 + 4 + 2
  config.merkle_group = 4;
  EnginePair pair{config};
  for (int i = 0; i < 10; ++i) pair.signer->submit(msg(std::to_string(i)), 0);
  pair.bus.pump();
  EXPECT_EQ(pair.received.size(), 10u);
}

TEST(CumulativeMerkleTest, ReliableUsesAmt) {
  Config config;
  config.mode = wire::Mode::kCumulativeMerkle;
  config.batch_size = 8;
  config.merkle_group = 4;
  config.reliable = true;
  EnginePair pair{config};
  for (int i = 0; i < 8; ++i) pair.signer->submit(msg("r"), 0);
  pair.bus.pump();
  ASSERT_EQ(pair.deliveries.size(), 8u);
  for (const auto& [cookie, status] : pair.deliveries) {
    EXPECT_EQ(status, DeliveryStatus::kAcked);
  }
}

TEST(CumulativeMerkleTest, TamperedPayloadRejected) {
  Config config;
  config.mode = wire::Mode::kCumulativeMerkle;
  config.batch_size = 8;
  config.merkle_group = 4;
  EnginePair pair{config};
  pair.bus.set_hook([](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      testing::tamper_and_reseal(frame);
    }
    return true;
  });
  for (int i = 0; i < 8; ++i) pair.signer->submit(msg("t"), 0);
  pair.bus.pump();
  EXPECT_TRUE(pair.received.empty());
  EXPECT_GT(pair.verifier->stats().invalid_packets, 0u);
}

TEST(CumulativeMerkleTest, CrossGroupPathRejected) {
  // A payload proven against the wrong group's root must not verify: swap
  // msg_index into another group while keeping the (valid) path.
  Config config;
  config.mode = wire::Mode::kCumulativeMerkle;
  config.batch_size = 8;
  config.merkle_group = 4;
  EnginePair pair{config};
  pair.bus.set_hook([](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      auto s2 = std::get<wire::S2Packet>(*wire::decode(frame));
      if (s2.msg_index < 4) {
        s2.msg_index = static_cast<std::uint16_t>(s2.msg_index + 4);
        frame = s2.encode();
      }
    }
    return true;
  });
  for (int i = 0; i < 8; ++i) pair.signer->submit(msg("g" + std::to_string(i)), 0);
  pair.bus.pump();
  // Group-0 messages were redirected to group 1 and must all fail; group-1
  // messages (untouched) deliver.
  EXPECT_EQ(pair.received.size(), 4u);
  EXPECT_GE(pair.verifier->stats().invalid_packets, 4u);
}

TEST(CumulativeMerkleTest, WirePacketRoundtrip) {
  wire::S1Packet p;
  p.hdr = {1, 2};
  p.mode = wire::Mode::kCumulativeMerkle;
  p.chain_element = crypto::Digest{ByteView{Bytes(20, 1)}};
  p.merkle_roots = {crypto::Digest{ByteView{Bytes(20, 2)}},
                    crypto::Digest{ByteView{Bytes(20, 3)}}};
  p.group_size = 4;
  p.leaf_count = 7;  // 4 + 3

  const auto decoded = wire::decode(p.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto& s1 = std::get<wire::S1Packet>(*decoded);
  EXPECT_EQ(s1.merkle_roots.size(), 2u);
  EXPECT_EQ(s1.group_size, 4u);
  EXPECT_EQ(s1.leaf_count, 7u);
}

TEST(CumulativeMerkleTest, InconsistentGroupStructureRejected) {
  wire::S1Packet p;
  p.hdr = {1, 2};
  p.mode = wire::Mode::kCumulativeMerkle;
  p.chain_element = crypto::Digest{ByteView{Bytes(20, 1)}};
  p.merkle_roots = {crypto::Digest{ByteView{Bytes(20, 2)}}};
  p.group_size = 4;
  p.leaf_count = 9;  // needs 3 roots, only 1 present
  EXPECT_FALSE(wire::decode(p.encode()).has_value());
}

// ---------------------------------------------------------------------------
// Selective repeat on nack
// ---------------------------------------------------------------------------

TEST(SelectiveRepeatTest, CorruptedS2RetransmittedAndDelivered) {
  Config config;
  config.reliable = true;
  config.retransmit_on_nack = true;
  EnginePair pair{config};

  int corruptions = 0;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2 && corruptions < 2) {
      ++corruptions;
      testing::tamper_and_reseal(frame);  // corrupt the first two S2 copies
    }
    return true;
  });
  pair.signer->submit(msg("eventually"), 0);
  pair.bus.pump();

  ASSERT_EQ(pair.received.size(), 1u);
  EXPECT_EQ(pair.received[0].second, msg("eventually"));
  ASSERT_EQ(pair.deliveries.size(), 1u);
  EXPECT_EQ(pair.deliveries[0].second, DeliveryStatus::kAcked);
  EXPECT_EQ(pair.signer->stats().nacks_received, 2u);
  EXPECT_EQ(pair.signer->stats().s2_retransmits, 2u);
}

TEST(SelectiveRepeatTest, GivesUpAfterRetryBudget) {
  Config config;
  config.reliable = true;
  config.retransmit_on_nack = true;
  config.max_retries = 3;
  EnginePair pair{config};

  pair.bus.set_hook([](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      testing::tamper_and_reseal(frame);  // every copy corrupted
    }
    return true;
  });
  pair.signer->submit(msg("hopeless"), 0);
  pair.bus.pump();

  ASSERT_EQ(pair.deliveries.size(), 1u);
  EXPECT_EQ(pair.deliveries[0].second, DeliveryStatus::kNacked);
  EXPECT_EQ(pair.signer->stats().s2_retransmits, 3u);
}

TEST(SelectiveRepeatTest, OnlyCorruptedMessagesResent) {
  Config config;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = 4;
  config.reliable = true;
  config.retransmit_on_nack = true;
  EnginePair pair{config};

  bool corrupted_once = false;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      const auto s2 = std::get<wire::S2Packet>(*wire::decode(frame));
      if (s2.msg_index == 2 && !corrupted_once) {
        corrupted_once = true;
        testing::tamper_and_reseal(frame);
      }
    }
    return true;
  });
  for (int i = 0; i < 4; ++i) pair.signer->submit(msg("m" + std::to_string(i)), 0);
  pair.bus.pump();

  EXPECT_EQ(pair.received.size(), 4u);
  EXPECT_EQ(pair.signer->stats().s2_retransmits, 1u);  // only message 2
  for (const auto& [cookie, status] : pair.deliveries) {
    EXPECT_EQ(status, DeliveryStatus::kAcked);
  }
}

// ---------------------------------------------------------------------------
// Chain rekeying
// ---------------------------------------------------------------------------

struct HostPair {
  explicit HostPair(Config config) : rng_a(1), rng_b(2) {
    Host::Callbacks a_cb;
    a_cb.send = bus.sender(1);
    a_cb.on_delivery = [this](std::uint64_t, DeliveryStatus status) {
      if (status == DeliveryStatus::kSent || status == DeliveryStatus::kAcked) {
        ++ok;
      } else {
        ++failed;
      }
    };
    a.emplace(config, 7, true, rng_a, std::move(a_cb));
    Host::Callbacks b_cb;
    b_cb.send = bus.sender(0);
    b_cb.on_message = [this](ByteView payload) {
      at_b.push_back(Bytes(payload.begin(), payload.end()));
    };
    b.emplace(config, 7, false, rng_b, std::move(b_cb));
    bus.attach(0, [this](ByteView f) { a->on_frame(f, now); });
    bus.attach(1, [this](ByteView f) { b->on_frame(f, now); });
  }

  HmacDrbg rng_a, rng_b;
  PacketBus bus;
  std::optional<Host> a, b;
  std::uint64_t now = 0;
  std::vector<Bytes> at_b;
  int ok = 0, failed = 0;
};

TEST(RekeyTest, LongStreamSurvivesChainExhaustion) {
  Config config;
  config.chain_length = 32;    // only ~15 rounds per chain
  config.rekey_threshold = 8;  // rotate when fewer than 8 elements remain
  HostPair pair{config};
  pair.a->start();
  pair.bus.pump();

  // 100 messages >> 15 rounds: impossible without rekeying.
  for (int i = 0; i < 100; ++i) {
    pair.a->submit(msg("long " + std::to_string(i)), pair.now);
    pair.bus.pump();
    pair.now += 1000;
    pair.a->on_tick(pair.now);  // drives rekey checks
    pair.b->on_tick(pair.now);
    pair.bus.pump();
  }

  EXPECT_EQ(pair.at_b.size(), 100u);
  EXPECT_EQ(pair.failed, 0);
  EXPECT_EQ(pair.ok, 100);
}

TEST(RekeyTest, WithoutRekeyingTheChainExhausts) {
  Config config;
  config.chain_length = 32;
  config.rekey_threshold = 0;  // disabled
  HostPair pair{config};
  pair.a->start();
  pair.bus.pump();

  for (int i = 0; i < 100; ++i) {
    pair.a->submit(msg("x"), pair.now);
    pair.bus.pump();
  }
  EXPECT_LT(pair.at_b.size(), 100u);
  EXPECT_GT(pair.failed, 0);
}

TEST(RekeyTest, ReplayedHandshakeRejected) {
  Config config;
  config.chain_length = 64;
  HostPair pair{config};

  // Capture the initial HS1.
  Bytes hs1_copy;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kHs1 && hs1_copy.empty()) {
      hs1_copy = frame;
    }
    return true;
  });
  pair.a->start();
  pair.bus.pump();
  ASSERT_FALSE(hs1_copy.empty());
  ASSERT_TRUE(pair.b->established());

  // Some traffic advances the chains.
  pair.a->submit(msg("one"), 0);
  pair.bus.pump();
  ASSERT_EQ(pair.at_b.size(), 1u);

  // Replaying the original HS1 must NOT reset B to the original anchors
  // (which would re-validate already-disclosed elements).
  pair.b->on_frame(hs1_copy, 0);
  pair.bus.pump();
  pair.a->submit(msg("two"), 0);
  pair.bus.pump();
  EXPECT_EQ(pair.at_b.size(), 2u);  // association still healthy
}

TEST(RekeyTest, RekeyPendingFlagLifecycle) {
  Config config;
  config.chain_length = 16;
  config.rekey_threshold = 14;  // triggers almost immediately
  HostPair pair{config};
  pair.a->start();
  pair.bus.pump();

  // The threshold-hit rekey fires right at the round boundary -- when the
  // settling A2 arrives, inside the pump -- so hold back HS2 to make the
  // in-flight window observable.
  pair.bus.set_hook([](Bytes& frame) {
    return wire::peek_type(frame) != wire::PacketType::kHs2;
  });
  pair.a->submit(msg("use up a round"), 0);
  pair.bus.pump();
  EXPECT_TRUE(pair.a->rekey_pending());  // HS1 out at the boundary
  pair.bus.set_hook(nullptr);
  pair.a->on_tick(1'000'000);  // retransmit HS1
  pair.bus.pump();             // HS2 returns
  EXPECT_FALSE(pair.a->rekey_pending());

  pair.a->submit(msg("after rekey"), 0);
  pair.bus.pump();
  EXPECT_EQ(pair.at_b.size(), 2u);
}

}  // namespace
}  // namespace alpha::core
