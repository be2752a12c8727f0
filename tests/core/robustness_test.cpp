// Robustness corners: pending-round eviction under S1 floods, chains whose
// length sets an uneven pebble spacing, auto-indexed chain acceptance.
#include <gtest/gtest.h>

#include "core/signer.hpp"
#include "core/verifier.hpp"
#include "hashchain/chain.hpp"
#include "test_bus.hpp"

namespace alpha::core {
namespace {

using crypto::Bytes;
using crypto::ByteView;
using crypto::HmacDrbg;

TEST(RobustnessTest, VerifierEvictsOldPendingRounds) {
  // A signer that opens many rounds without ever sending S2s must not grow
  // the verifier's memory unboundedly: old rounds are evicted (LRU by seq).
  Config config;
  config.chain_length = 256;
  HmacDrbg rng{1};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng,
      config.chain_length);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng,
      config.chain_length);

  VerifierEngine::Callbacks cb;
  cb.send = [](Bytes) {};
  VerifierEngine verifier{config, 1,    ack,          sig.anchor(),
                          sig.length(), std::move(cb), rng};

  hashchain::ChainWalker walker{sig};
  const std::size_t h = config.digest_size();
  for (std::uint32_t seq = 1; seq <= 40; ++seq) {
    wire::S1Packet s1;
    s1.hdr = {1, seq};
    s1.mode = wire::Mode::kBase;
    s1.chain_index = static_cast<std::uint32_t>(walker.next_index());
    s1.chain_element = walker.peek();
    walker.take(2);
    s1.macs = {crypto::Digest{ByteView{Bytes(h, 1)}}};
    verifier.on_s1(s1);
  }
  // At most the retention window's worth of MACs stays buffered.
  EXPECT_LE(verifier.buffered_bytes(), 8 * h);
}

TEST(RobustnessTest, CheckpointChainCustomIntervals) {
  // The pebble spacing is round(sqrt(n)), so lengths choose the interval:
  // k = 1, 3, 4, 7, 11 and 14 below, most of them leaving the anchor past
  // the last pebble. Every chain from one seed shares its prefix; each is
  // checked against the chain stepped forward from the seed.
  const Bytes seed(20, 0x21);
  const crypto::Digest h0{ByteView{seed}};
  for (const std::size_t n : {2u, 8u, 16u, 50u, 128u, 200u}) {
    const hashchain::HashChain chain{crypto::HashAlgo::kSha1,
                                     hashchain::ChainTagging::kRoleBound, seed,
                                     n};
    const auto check = [&](std::size_t i) {
      EXPECT_EQ(chain.element(i),
                hashchain::chain_advance(crypto::HashAlgo::kSha1,
                                         hashchain::ChainTagging::kRoleBound,
                                         h0, 0, i))
          << "length " << n << " element " << i;
    };
    for (std::size_t i = 0; i <= n; i += 13) check(i);
    check(n);
  }
}

TEST(RobustnessTest, AcceptAutoSweepsGaps) {
  HmacDrbg rng{3};
  const auto chain = hashchain::HashChain::generate(
      crypto::HashAlgo::kSha1, hashchain::ChainTagging::kRoleBound, rng, 128);
  for (const std::size_t gap : {1u, 2u, 5u, 17u, 63u}) {
    hashchain::ChainVerifier verifier{crypto::HashAlgo::kSha1,
                                      hashchain::ChainTagging::kRoleBound,
                                      chain.anchor(), 128, /*max_gap=*/64};
    const auto idx = verifier.accept_auto(chain.element(128 - gap));
    ASSERT_TRUE(idx.has_value()) << "gap " << gap;
    EXPECT_EQ(*idx, 128 - gap);
  }
}

TEST(RobustnessTest, SignerIgnoresCrossAssociationPackets) {
  Config config;
  HmacDrbg rng{4};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);

  std::vector<Bytes> sent;
  SignerEngine::Callbacks cb;
  cb.send = [&](Bytes f) { sent.push_back(std::move(f)); };
  SignerEngine signer{config, /*assoc=*/1, sig, ack.anchor(), ack.length(),
                      std::move(cb)};
  signer.submit(Bytes(10, 1), 0);
  ASSERT_EQ(sent.size(), 1u);

  // A1 stamped with a different association must not advance the round,
  // even if its chain element would verify.
  wire::A1Packet a1;
  a1.hdr = {/*assoc=*/2, 1};
  a1.ack_chain_index = static_cast<std::uint32_t>(ack.length() - 1);
  a1.ack_element = ack.element(ack.length() - 1);
  signer.on_a1(a1, 0);
  EXPECT_EQ(sent.size(), 1u);  // no S2 went out
  EXPECT_TRUE(signer.round_active());

  // Correct association: proceeds.
  a1.hdr.assoc_id = 1;
  signer.on_a1(a1, 0);
  EXPECT_EQ(sent.size(), 2u);
}

TEST(RobustnessTest, ZeroLengthPayloadRoundtrips) {
  Config config;
  testing::PacketBus bus;
  HmacDrbg rng{5};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng, 64);

  std::size_t delivered = 0;
  SignerEngine::Callbacks scb;
  scb.send = bus.sender(1);
  SignerEngine signer{config, 1, sig, ack.anchor(), ack.length(),
                      std::move(scb)};
  VerifierEngine::Callbacks vcb;
  vcb.send = bus.sender(0);
  vcb.on_message = [&](std::uint32_t, std::uint16_t, ByteView payload) {
    EXPECT_TRUE(payload.empty());
    ++delivered;
  };
  VerifierEngine verifier{config, 1,    ack,           sig.anchor(),
                          sig.length(), std::move(vcb), rng};
  bus.attach(1, [&](ByteView f) {
    if (const auto s2 = wire::parse_s2(f)) return verifier.on_s2(*s2);
    const auto p = wire::decode(f);
    if (const auto* s1 = std::get_if<wire::S1Packet>(&*p)) verifier.on_s1(*s1);
  });
  bus.attach(0, [&](ByteView f) {
    const auto p = wire::decode(f);
    if (const auto* a1 = std::get_if<wire::A1Packet>(&*p)) signer.on_a1(*a1, 0);
  });

  signer.submit(Bytes{}, 0);  // empty message (e.g. a keepalive)
  bus.pump();
  EXPECT_EQ(delivered, 1u);
}

}  // namespace
}  // namespace alpha::core
