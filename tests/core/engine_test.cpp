// Signer/Verifier engine pair tests across all modes and reliability
// settings, driven directly (no Host, no handshake).
#include <gtest/gtest.h>

#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;
using testing::PacketBus;

constexpr int kSigner = 0;
constexpr int kVerifier = 1;

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
    scb.send = bus.sender(kVerifier);
    scb.on_delivery = [this](std::uint64_t cookie, DeliveryStatus status) {
      deliveries.emplace_back(cookie, status);
    };
    signer.emplace(config, /*assoc_id=*/1, sig_chain, ack_chain.anchor(),
                   ack_chain.length(), std::move(scb));

    VerifierEngine::Callbacks vcb;
    vcb.send = bus.sender(kSigner);
    vcb.on_message = [this](std::uint32_t seq, std::uint16_t index,
                            ByteView payload) {
      received.emplace_back(seq, index, Bytes(payload.begin(), payload.end()));
    };
    verifier.emplace(config, /*assoc_id=*/1, ack_chain, sig_chain.anchor(),
                     sig_chain.length(), std::move(vcb), rng);

    bus.attach(kSigner, [this](ByteView frame) {
      const auto packet = wire::decode(frame);
      ASSERT_TRUE(packet.has_value());
      if (const auto* a1 = std::get_if<wire::A1Packet>(&*packet)) {
        signer->on_a1(*a1, now);
      } else if (const auto* a2 = std::get_if<wire::A2Packet>(&*packet)) {
        signer->on_a2(*a2, now);
      }
    });
    bus.attach(kVerifier, [this](ByteView frame) {
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
  hashchain::HashChain sig_chain;  // copies live in the engines
  hashchain::HashChain ack_chain;
  PacketBus bus;
  std::optional<SignerEngine> signer;
  std::optional<VerifierEngine> verifier;
  std::uint64_t now = 0;
  std::vector<std::pair<std::uint64_t, DeliveryStatus>> deliveries;
  std::vector<std::tuple<std::uint32_t, std::uint16_t, Bytes>> received;
};

Bytes msg(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

TEST(EngineBaseTest, SingleMessageUnreliable) {
  Config config;
  EnginePair pair{config};

  const auto cookie = pair.signer->submit(msg("hello relay world"), 0);
  pair.bus.pump();

  ASSERT_EQ(pair.received.size(), 1u);
  EXPECT_EQ(std::get<2>(pair.received[0]), msg("hello relay world"));
  ASSERT_EQ(pair.deliveries.size(), 1u);
  EXPECT_EQ(pair.deliveries[0].first, cookie);
  EXPECT_EQ(pair.deliveries[0].second, DeliveryStatus::kSent);
  EXPECT_EQ(pair.signer->stats().s1_sent, 1u);
  EXPECT_EQ(pair.signer->stats().s2_sent, 1u);
  EXPECT_EQ(pair.verifier->stats().a1_sent, 1u);
  EXPECT_EQ(pair.verifier->stats().a2_sent, 0u);  // unreliable: no A2
}

TEST(EngineBaseTest, SingleMessageReliable) {
  Config config;
  config.reliable = true;
  EnginePair pair{config};

  const auto cookie = pair.signer->submit(msg("important signaling"), 0);
  pair.bus.pump();

  ASSERT_EQ(pair.received.size(), 1u);
  ASSERT_EQ(pair.deliveries.size(), 1u);
  EXPECT_EQ(pair.deliveries[0].first, cookie);
  EXPECT_EQ(pair.deliveries[0].second, DeliveryStatus::kAcked);
  EXPECT_EQ(pair.verifier->stats().a2_sent, 1u);
  EXPECT_EQ(pair.signer->stats().acks_received, 1u);
}

TEST(EngineBaseTest, SequentialRoundsConsumeChainDownward) {
  Config config;
  EnginePair pair{config};

  for (int i = 0; i < 5; ++i) {
    pair.signer->submit(msg("m" + std::to_string(i)), 0);
    pair.bus.pump();
  }
  EXPECT_EQ(pair.received.size(), 5u);
  EXPECT_EQ(pair.signer->stats().rounds_completed, 5u);
}

TEST(EngineBaseTest, BacklogDrainsAcrossRounds) {
  Config config;
  EnginePair pair{config};

  for (int i = 0; i < 8; ++i) pair.signer->submit(msg(std::to_string(i)), 0);
  EXPECT_EQ(pair.signer->backlog(), 7u);  // one active round
  pair.bus.pump();
  EXPECT_EQ(pair.received.size(), 8u);
  EXPECT_EQ(pair.signer->backlog(), 0u);
}

class EngineModeTest
    : public ::testing::TestWithParam<std::tuple<wire::Mode, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    AllModes, EngineModeTest,
    ::testing::Combine(::testing::Values(wire::Mode::kBase,
                                         wire::Mode::kCumulative,
                                         wire::Mode::kMerkle),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case wire::Mode::kBase: name = "Base"; break;
        case wire::Mode::kCumulative: name = "AlphaC"; break;
        case wire::Mode::kMerkle: name = "AlphaM"; break;
        case wire::Mode::kCumulativeMerkle: name = "AlphaCM"; break;
      }
      return name + (std::get<1>(info.param) ? "Reliable" : "Unreliable");
    });

TEST_P(EngineModeTest, BatchDeliversAllMessages) {
  const auto [mode, reliable] = GetParam();
  Config config;
  config.mode = mode;
  config.reliable = reliable;
  config.batch_size = 8;
  EnginePair pair{config};

  std::vector<std::uint64_t> cookies;
  for (int i = 0; i < 8; ++i) {
    cookies.push_back(
        pair.signer->submit(msg("batch message " + std::to_string(i)), 0));
  }
  pair.bus.pump();

  ASSERT_EQ(pair.received.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(std::get<2>(pair.received[static_cast<std::size_t>(i)]),
              msg("batch message " + std::to_string(i)));
  }
  ASSERT_EQ(pair.deliveries.size(), 8u);
  const auto expected =
      reliable ? DeliveryStatus::kAcked : DeliveryStatus::kSent;
  for (const auto& [cookie, status] : pair.deliveries) {
    EXPECT_EQ(status, expected);
  }
  // Batched modes use one round (one S1/A1) for all 8 messages.
  const std::uint64_t expected_rounds = mode == wire::Mode::kBase ? 8u : 1u;
  EXPECT_EQ(pair.signer->stats().rounds_completed, expected_rounds);
  EXPECT_EQ(pair.signer->stats().s1_sent, expected_rounds);
}

TEST_P(EngineModeTest, WorksWithAllHashAlgos) {
  const auto [mode, reliable] = GetParam();
  for (const auto algo : {crypto::HashAlgo::kSha1, crypto::HashAlgo::kSha256,
                          crypto::HashAlgo::kMmo128}) {
    Config config;
    config.algo = algo;
    config.mode = mode;
    config.reliable = reliable;
    config.batch_size = 4;
    EnginePair pair{config};
    for (int i = 0; i < 4; ++i) pair.signer->submit(msg("x"), 0);
    pair.bus.pump();
    EXPECT_EQ(pair.received.size(), 4u)
        << "algo " << crypto::to_string(algo);
  }
}

TEST_P(EngineModeTest, TamperedPayloadRejectedEverywhere) {
  const auto [mode, reliable] = GetParam();
  Config config;
  config.mode = mode;
  config.reliable = reliable;
  config.batch_size = 4;
  EnginePair pair{config};

  // Corrupt the payload byte of every S2 in flight.
  pair.bus.set_hook([](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      testing::tamper_and_reseal(frame);  // flips the last payload byte
    }
    return true;
  });

  for (int i = 0; i < 4; ++i) pair.signer->submit(msg("payload!"), 0);
  pair.bus.pump();

  EXPECT_TRUE(pair.received.empty());
  EXPECT_GT(pair.verifier->stats().invalid_packets, 0u);
  if (reliable) {
    // Every rejected S2 triggers a verifiable nack.
    for (const auto& [cookie, status] : pair.deliveries) {
      EXPECT_EQ(status, DeliveryStatus::kNacked);
    }
  }
}

TEST(EngineReliableTest, NackCarriesVerifiableEvidence) {
  Config config;
  config.reliable = true;
  EnginePair pair{config};

  pair.bus.set_hook([](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      testing::tamper_and_reseal(frame, 0xff);
    }
    return true;
  });
  pair.signer->submit(msg("to be mangled"), 0);
  pair.bus.pump();

  ASSERT_EQ(pair.deliveries.size(), 1u);
  EXPECT_EQ(pair.deliveries[0].second, DeliveryStatus::kNacked);
  EXPECT_EQ(pair.signer->stats().nacks_received, 1u);
}

TEST(EngineRetransmitTest, LostS1IsRetransmitted) {
  Config config;
  config.reliable = true;
  config.rto_us = 1000;
  config.rto_max_us = config.rto_us;  // fixed timer: test advances in rto steps
  EnginePair pair{config};

  int drops = 0;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS1 && drops < 2) {
      ++drops;
      return false;  // drop the first two S1 transmissions
    }
    return true;
  });

  pair.signer->submit(msg("persistent"), 0);
  pair.bus.pump();
  EXPECT_TRUE(pair.received.empty());

  pair.now = 2000;
  pair.signer->on_tick(pair.now);  // first retransmit (dropped)
  pair.bus.pump();
  pair.now = 4000;
  pair.signer->on_tick(pair.now);  // second retransmit (delivered)
  pair.bus.pump();

  ASSERT_EQ(pair.received.size(), 1u);
  EXPECT_EQ(pair.signer->stats().s1_retransmits, 2u);
  ASSERT_EQ(pair.deliveries.size(), 1u);
  EXPECT_EQ(pair.deliveries[0].second, DeliveryStatus::kAcked);
}

TEST(EngineRetransmitTest, LostS2IsRetransmittedInReliableMode) {
  Config config;
  config.reliable = true;
  config.rto_us = 1000;
  EnginePair pair{config};

  int drops = 0;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2 && drops < 1) {
      ++drops;
      return false;
    }
    return true;
  });

  pair.signer->submit(msg("retry me"), 0);
  pair.bus.pump();
  EXPECT_TRUE(pair.received.empty());

  pair.now = 2000;
  pair.signer->on_tick(pair.now);
  pair.bus.pump();
  ASSERT_EQ(pair.received.size(), 1u);
  EXPECT_EQ(pair.signer->stats().s2_retransmits, 1u);
}

TEST(EngineRetransmitTest, RetriesExhaustedFailsRound) {
  Config config;
  config.reliable = true;
  config.rto_us = 1000;
  config.rto_max_us = config.rto_us;  // fixed timer: test advances in rto steps
  config.max_retries = 3;
  EnginePair pair{config};

  pair.bus.set_hook([](Bytes&) { return false; });  // black hole

  pair.signer->submit(msg("doomed"), 0);
  pair.bus.pump();
  for (int i = 1; i <= 10; ++i) {
    pair.now = static_cast<std::uint64_t>(i) * 2000;
    pair.signer->on_tick(pair.now);
    pair.bus.pump();
  }

  ASSERT_EQ(pair.deliveries.size(), 1u);
  EXPECT_EQ(pair.deliveries[0].second, DeliveryStatus::kFailed);
  EXPECT_EQ(pair.signer->stats().rounds_failed, 1u);
  // The engine recovers: with the hook removed the next message flows.
  pair.bus.set_hook(nullptr);
  pair.signer->submit(msg("alive again"), pair.now);
  pair.bus.pump();
  EXPECT_EQ(pair.received.size(), 1u);
}

TEST(EngineRetransmitTest, DuplicateS1AnsweredIdempotently) {
  Config config;
  EnginePair pair{config};

  // Duplicate every S1.
  std::vector<Bytes> dup;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS1) {
      dup.push_back(frame);
    }
    return true;
  });
  pair.signer->submit(msg("once"), 0);
  pair.bus.pump();
  ASSERT_EQ(pair.received.size(), 1u);

  // Replay the captured S1: verifier must answer with the same A1 and not
  // burn fresh ack-chain elements.
  const auto a1_before = pair.verifier->stats().a1_sent;
  const auto packet = wire::decode(dup.at(0));
  pair.verifier->on_s1(std::get<wire::S1Packet>(*packet));
  EXPECT_EQ(pair.verifier->stats().duplicate_packets, 1u);
  EXPECT_EQ(pair.verifier->stats().a1_sent, a1_before);  // cached frame
}

TEST(EngineSecurityTest, ForgedS1Rejected) {
  Config config;
  EnginePair pair{config};
  pair.signer->submit(msg("legit"), 0);
  pair.bus.pump();

  wire::S1Packet forged;
  forged.hdr = {1, 99};
  forged.mode = wire::Mode::kBase;
  forged.chain_index = 999;  // odd, but not on the chain
  forged.chain_element = crypto::Digest{ByteView{Bytes(20, 0xbb)}};
  forged.macs = {crypto::Digest{ByteView{Bytes(20, 0xcc)}}};
  const auto before = pair.verifier->stats().invalid_packets;
  pair.verifier->on_s1(forged);
  EXPECT_EQ(pair.verifier->stats().invalid_packets, before + 1);
  EXPECT_TRUE(pair.bus.idle());  // no A1 granted
}

TEST(EngineSecurityTest, EvenIndexS1ElementRejected) {
  // Reformatting defense: an S2-role (even-index) element must not
  // authenticate an S1 packet.
  Config config;
  EnginePair pair{config};

  wire::S1Packet forged;
  forged.hdr = {1, 1};
  forged.mode = wire::Mode::kBase;
  forged.chain_index = static_cast<std::uint32_t>(pair.sig_chain.length() - 2);
  forged.chain_element = pair.sig_chain.element(pair.sig_chain.length() - 2);
  forged.macs = {crypto::Digest{ByteView{Bytes(20, 0xcc)}}};
  pair.verifier->on_s1(forged);
  EXPECT_EQ(pair.verifier->stats().invalid_packets, 1u);
}

TEST(EngineSecurityTest, UnsolicitedS2Dropped) {
  Config config;
  EnginePair pair{config};

  wire::S2Packet s2;
  s2.hdr = {1, 42};  // round never announced
  s2.mode = wire::Mode::kBase;
  s2.chain_index = 100;
  s2.disclosed_element = crypto::Digest{ByteView{Bytes(20, 1)}};
  s2.payload = msg("flood");
  const Bytes frame = s2.encode();
  pair.verifier->on_s2(*wire::parse_s2(frame));
  EXPECT_EQ(pair.verifier->stats().invalid_packets, 1u);
  EXPECT_TRUE(pair.received.empty());
}

TEST(EngineSecurityTest, RefusingVerifierSendsNoA1) {
  Config config;
  EnginePair pair{config};
  pair.verifier->set_accepting(false);

  pair.signer->submit(msg("unwanted"), 0);
  pair.bus.pump();
  EXPECT_TRUE(pair.received.empty());
  EXPECT_EQ(pair.verifier->stats().a1_sent, 0u);
}

TEST(EngineSecurityTest, ForgedAckRejected) {
  Config config;
  config.reliable = true;
  EnginePair pair{config};

  // Swap A2 kind from ack to nack in flight: the pre-image check must fail
  // because the nack commitment uses a different secret.
  pair.bus.set_hook([](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kA2) {
      const auto packet = wire::decode(frame);
      auto a2 = std::get<wire::A2Packet>(*packet);
      a2.kind = a2.kind == wire::AckKind::kAck ? wire::AckKind::kNack
                                               : wire::AckKind::kAck;
      frame = a2.encode();
    }
    return true;
  });
  pair.signer->submit(msg("flip my ack"), 0);
  pair.bus.pump();

  EXPECT_TRUE(pair.deliveries.empty());  // forged (n)ack not accepted
  EXPECT_GT(pair.signer->stats().invalid_packets, 0u);
}

TEST(EngineChainTest, ExhaustionFailsCleanly) {
  Config config;
  config.chain_length = 8;  // 3 usable rounds (indices 7..2)
  EnginePair pair{config};

  std::size_t delivered_before_exhaustion = 0;
  for (int i = 0; i < 6; ++i) {
    pair.signer->submit(msg("m"), 0);
    pair.bus.pump();
    delivered_before_exhaustion = pair.received.size();
  }
  EXPECT_LT(delivered_before_exhaustion, 6u);
  EXPECT_FALSE(pair.signer->can_send());
  // The tail submissions were failed, not silently dropped.
  std::size_t failed = 0;
  for (const auto& [cookie, status] : pair.deliveries) {
    if (status == DeliveryStatus::kFailed) ++failed;
  }
  EXPECT_GT(failed, 0u);
}

TEST(EngineMemoryTest, VerifierBuffersShrinkWithMerkleMode) {
  // Table 2: verifier buffers n*h in ALPHA-C but only h in ALPHA-M.
  Config cumulative;
  cumulative.mode = wire::Mode::kCumulative;
  cumulative.batch_size = 16;
  EnginePair c_pair{cumulative};
  // Capture buffer usage after S1 lands but before the round retires: stop
  // A1 from reaching the signer so the round stays pending.
  c_pair.bus.set_hook([](Bytes& frame) {
    return wire::peek_type(frame) != wire::PacketType::kA1;
  });
  for (int i = 0; i < 16; ++i) c_pair.signer->submit(msg("m"), 0);
  c_pair.bus.pump();
  EXPECT_EQ(c_pair.verifier->buffered_bytes(), 16u * 20u);

  Config merkle = cumulative;
  merkle.mode = wire::Mode::kMerkle;
  EnginePair m_pair{merkle};
  m_pair.bus.set_hook([](Bytes& frame) {
    return wire::peek_type(frame) != wire::PacketType::kA1;
  });
  for (int i = 0; i < 16; ++i) m_pair.signer->submit(msg("m"), 0);
  m_pair.bus.pump();
  EXPECT_EQ(m_pair.verifier->buffered_bytes(), 20u);
}

TEST(EngineReorderTest, NextRoundS1OvertakingS2StillDelivers) {
  // On jittery links the S1 of round n+1 can arrive before round n's S2.
  // The S2's disclosed element is then *above* the verifier's chain state
  // and must verify by derivation rather than be rejected as a replay.
  Config config;
  EnginePair pair{config};

  // Capture frames instead of delivering, to control arrival order.
  std::vector<Bytes> held_s2;
  pair.bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kS2) {
      held_s2.push_back(frame);
      return false;  // hold every S2 back
    }
    return true;
  });
  pair.signer->submit(msg("round one"), 0);
  pair.bus.pump();  // S1(1) delivered, A1(1) returned, S2(1) held
  pair.signer->submit(msg("round two"), 0);
  pair.bus.pump();  // S1(2) delivered -- chain state now past round 1
  ASSERT_EQ(held_s2.size(), 2u);
  EXPECT_TRUE(pair.received.empty());

  // Now deliver the held S2s *after* the newer S1s: both must verify.
  pair.bus.set_hook(nullptr);
  for (const auto& frame : held_s2) {
    pair.verifier->on_s2(*wire::parse_s2(frame));
  }
  ASSERT_EQ(pair.received.size(), 2u);
  EXPECT_EQ(std::get<2>(pair.received[0]), msg("round one"));
  EXPECT_EQ(std::get<2>(pair.received[1]), msg("round two"));
}

TEST(EngineTable1Test, HashCountsMatchPaperShapeBaseMode) {
  // Table 1 (ALPHA column): per message, the signer spends 1 MAC; the
  // verifier spends 1 MAC + 1 chain verification (plus 2 for ack handling
  // in reliable mode).
  Config config;
  EnginePair pair{config};
  for (int i = 0; i < 10; ++i) {
    pair.signer->submit(msg("table one"), 0);
    pair.bus.pump();
  }
  const auto& s = pair.signer->stats();
  const auto& v = pair.verifier->stats();
  // 1 MAC per message on each side; HMAC costs 2 hash finalizations.
  EXPECT_EQ(s.hashes.signature, 20u);
  EXPECT_EQ(v.hashes.signature, 20u);
  // Verifier chain verification: S1 element (1 step) + S2 element (1 step)
  // per message, exactly Table 1's "HC verify = 1" per packet.
  EXPECT_EQ(v.hashes.chain_verify, 20u);
}

}  // namespace
}  // namespace alpha::core
