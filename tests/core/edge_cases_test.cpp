// Edge-case coverage: exhaustion paths, boundary inputs, replay handling,
// lossy-handshake recovery.
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

TEST(EdgeCaseTest, OversizedMessageThrows) {
  Config config;
  HmacDrbg rng{1};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 16);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 16);
  SignerEngine::Callbacks cb;
  cb.send = [](Bytes) {};
  SignerEngine signer{config, 1, sig, ack.anchor(), ack.length(),
                      std::move(cb)};
  EXPECT_THROW(signer.submit(Bytes(70000, 0), 0), std::length_error);
  EXPECT_NO_THROW(signer.submit(Bytes(65535, 0), 0));
}

TEST(EdgeCaseTest, VerifierDeniesWhenAckChainExhausted) {
  Config config;
  config.chain_length = 4;  // one round for the verifier's ack chain
  HmacDrbg rng{2};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 1024);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 4);

  std::size_t a1_count = 0;
  VerifierEngine::Callbacks cb;
  cb.send = [&](Bytes frame) {
    if (wire::peek_type(frame) == wire::PacketType::kA1) ++a1_count;
  };
  VerifierEngine verifier{config, 1,        ack,
                          sig.anchor(),     sig.length(),
                          std::move(cb),    rng};

  hashchain::ChainWalker walker{sig};
  for (std::uint32_t seq = 1; seq <= 3; ++seq) {
    wire::S1Packet s1;
    s1.hdr = {1, seq};
    s1.mode = wire::Mode::kBase;
    s1.chain_index = static_cast<std::uint32_t>(walker.next_index());
    s1.chain_element = walker.peek();
    walker.take(2);
    s1.macs = {crypto::Digest{ByteView{Bytes(20, 1)}}};
    verifier.on_s1(s1);
  }
  // Ack chain of length 4 funds exactly one A1 (+1 reserved element); the
  // second and third S1 are silently denied -- the flood-mitigation posture.
  EXPECT_EQ(a1_count, 1u);
}

TEST(EdgeCaseTest, MsgIndexOutOfRangeRejected) {
  Config config;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = 4;
  HmacDrbg rng{3};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);

  PacketBus bus;
  SignerEngine::Callbacks scb;
  scb.send = bus.sender(1);
  SignerEngine signer{config, 1, sig, ack.anchor(), ack.length(),
                      std::move(scb)};
  VerifierEngine::Callbacks vcb;
  vcb.send = bus.sender(0);
  std::size_t delivered = 0;
  vcb.on_message = [&](std::uint32_t, std::uint16_t, ByteView) { ++delivered; };
  VerifierEngine verifier{config, 1,     ack,          sig.anchor(),
                          sig.length(),  std::move(vcb), rng};

  // Capture the S2s and mutate msg_index beyond the batch.
  bus.attach(1, [&](ByteView frame) {
    const auto packet = wire::decode(frame);
    if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
      verifier.on_s1(*s1);
    } else if (const auto* s2 = std::get_if<wire::S2Packet>(&*packet)) {
      wire::S2Packet bad = *s2;
      bad.msg_index = 99;
      const Bytes bad_frame = bad.encode();
      verifier.on_s2(*wire::parse_s2(bad_frame));
    }
  });
  bus.attach(0, [&](ByteView frame) {
    const auto packet = wire::decode(frame);
    if (const auto* a1 = std::get_if<wire::A1Packet>(&*packet)) {
      signer.on_a1(*a1, 0);
    }
  });
  for (int i = 0; i < 4; ++i) signer.submit(msg("m"), 0);
  bus.pump();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(verifier.stats().invalid_packets, 4u);
}

TEST(EdgeCaseTest, HandshakeLossRecoveredByTicks) {
  // Both the HS1 and the HS2 are dropped a few times; Host::on_tick
  // retransmission converges without manual restarts.
  Config config;
  config.rto_us = 1000;
  config.rto_max_us = config.rto_us;  // fixed timer: test advances in rto steps

  HmacDrbg rng_a{1}, rng_b{2};
  PacketBus bus;
  std::optional<Host> a, b;
  Host::Callbacks a_cb;
  a_cb.send = bus.sender(1);
  a.emplace(config, 7, true, rng_a, std::move(a_cb));
  Host::Callbacks b_cb;
  b_cb.send = bus.sender(0);
  b.emplace(config, 7, false, rng_b, std::move(b_cb));
  std::uint64_t now = 0;
  bus.attach(0, [&](ByteView f) { a->on_frame(f, now); });
  bus.attach(1, [&](ByteView f) { b->on_frame(f, now); });

  int drops = 0;
  bus.set_hook([&](Bytes& frame) {
    const auto type = wire::peek_type(frame);
    if ((type == wire::PacketType::kHs1 || type == wire::PacketType::kHs2) &&
        drops < 5) {
      ++drops;
      return false;
    }
    return true;
  });

  a->start();
  bus.pump();
  EXPECT_FALSE(a->established());
  for (int tick = 1; tick <= 20 && !a->established(); ++tick) {
    now = static_cast<std::uint64_t>(tick) * 2000;
    a->on_tick(now);
    b->on_tick(now);
    bus.pump();
  }
  EXPECT_TRUE(a->established());
  EXPECT_TRUE(b->established());
}

TEST(EdgeCaseTest, DuplicateHs1GetsIdempotentHs2) {
  Config config;
  HmacDrbg rng_a{1}, rng_b{2};
  PacketBus bus;
  std::optional<Host> a, b;
  Host::Callbacks a_cb;
  a_cb.send = bus.sender(1);
  a.emplace(config, 7, true, rng_a, std::move(a_cb));
  Host::Callbacks b_cb;
  b_cb.send = bus.sender(0);
  b.emplace(config, 7, false, rng_b, std::move(b_cb));
  bus.attach(0, [&](ByteView f) { a->on_frame(f, 0); });
  bus.attach(1, [&](ByteView f) { b->on_frame(f, 0); });

  Bytes hs1_frame, first_hs2, second_hs2;
  bus.set_hook([&](Bytes& frame) {
    if (wire::peek_type(frame) == wire::PacketType::kHs1) hs1_frame = frame;
    if (wire::peek_type(frame) == wire::PacketType::kHs2) {
      (first_hs2.empty() ? first_hs2 : second_hs2) = frame;
    }
    return true;
  });
  a->start();
  bus.pump();
  ASSERT_TRUE(b->established());

  // Replay the HS1: B must answer with the *same* HS2 (no chain rotation).
  b->on_frame(hs1_frame, 0);
  bus.pump();
  ASSERT_FALSE(second_hs2.empty());
  EXPECT_EQ(first_hs2, second_hs2);
}

TEST(EdgeCaseTest, RelaySurvivesRandomGarbageFrames) {
  Config config;
  RelayEngine::Callbacks cb;
  cb.forward = [](Direction, ByteView) {};
  RelayEngine relay{config, RelayEngine::Options{}, std::move(cb)};
  HmacDrbg rng{0xf422u};
  for (int i = 0; i < 3000; ++i) {
    const Bytes junk = rng.bytes(rng.uniform(200));
    (void)relay.on_frame(i % 2 == 0 ? Direction::kForward
                                    : Direction::kReverse,
                         junk);
  }
  // Every frame accounted for, none forwarded blindly.
  const auto& stats = relay.stats();
  EXPECT_EQ(stats.forwarded, 0u);
  EXPECT_EQ(stats.dropped_invalid + stats.dropped_unsolicited, 3000u);
}

TEST(EdgeCaseTest, A2ReplayDoesNotDoubleSettle) {
  Config config;
  config.reliable = true;
  HmacDrbg rng{5};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);

  PacketBus bus;
  std::vector<Bytes> a2_frames;
  SignerEngine::Callbacks scb;
  scb.send = bus.sender(1);
  std::size_t settles = 0;
  scb.on_delivery = [&](std::uint64_t, DeliveryStatus) { ++settles; };
  SignerEngine signer{config, 1, sig, ack.anchor(), ack.length(),
                      std::move(scb)};
  VerifierEngine::Callbacks vcb;
  vcb.send = bus.sender(0);
  VerifierEngine verifier{config, 1,     ack,           sig.anchor(),
                          sig.length(),  std::move(vcb), rng};
  bus.attach(1, [&](ByteView frame) {
    if (const auto s2 = wire::parse_s2(frame)) return verifier.on_s2(*s2);
    const auto packet = wire::decode(frame);
    if (const auto* s1 = std::get_if<wire::S1Packet>(&*packet)) {
      verifier.on_s1(*s1);
    }
  });
  bus.attach(0, [&](ByteView frame) {
    const auto packet = wire::decode(frame);
    if (const auto* a1 = std::get_if<wire::A1Packet>(&*packet)) {
      signer.on_a1(*a1, 0);
    } else if (const auto* a2 = std::get_if<wire::A2Packet>(&*packet)) {
      a2_frames.push_back(Bytes(frame.begin(), frame.end()));
      signer.on_a2(*a2, 0);
    }
  });

  signer.submit(msg("once"), 0);
  bus.pump();
  ASSERT_EQ(settles, 1u);
  ASSERT_EQ(a2_frames.size(), 1u);

  // Replay the A2: the round is gone; nothing must change or crash.
  const auto replay = wire::decode(a2_frames[0]);
  signer.on_a2(std::get<wire::A2Packet>(*replay), 0);
  EXPECT_EQ(settles, 1u);
}

}  // namespace
}  // namespace alpha::core
