#include "hashchain/chain.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "crypto/counter.hpp"
#include "crypto/cpu.hpp"
#include "trace/prof.hpp"

namespace alpha::hashchain {
namespace {

using crypto::Bytes;
using crypto::HmacDrbg;

class ChainTest : public ::testing::TestWithParam<HashAlgo> {};

INSTANTIATE_TEST_SUITE_P(AllAlgos, ChainTest,
                         ::testing::Values(HashAlgo::kSha1, HashAlgo::kSha256,
                                           HashAlgo::kMmo128),
                         [](const auto& info) {
                           switch (info.param) {
                             case HashAlgo::kSha1: return "Sha1";
                             case HashAlgo::kSha256: return "Sha256";
                             case HashAlgo::kMmo128: return "Mmo128";
                           }
                           return "Unknown";
                         });

TEST_P(ChainTest, ConstructionMatchesManualIteration) {
  const HashAlgo algo = GetParam();
  const Bytes seed(crypto::digest_size(algo), 0x42);
  const HashChain chain{algo, ChainTagging::kRoleBound, seed, 8};

  Digest cur{crypto::ByteView{seed}};
  EXPECT_EQ(chain.element(0), cur);
  for (std::size_t i = 1; i <= 8; ++i) {
    const auto tag = i % 2 == 1 ? crypto::as_bytes("S1") : crypto::as_bytes("S2");
    cur = crypto::hash2(algo, tag, cur.view());
    EXPECT_EQ(chain.element(i), cur) << "element " << i;
  }
  EXPECT_EQ(chain.anchor(), chain.element(8));
}

TEST_P(ChainTest, PlainChainUsesNoTag) {
  const HashAlgo algo = GetParam();
  const Bytes seed(crypto::digest_size(algo), 0x01);
  const HashChain chain{algo, ChainTagging::kPlain, seed, 4};
  Digest cur{crypto::ByteView{seed}};
  for (std::size_t i = 1; i <= 4; ++i) {
    cur = crypto::hash(algo, cur.view());
    EXPECT_EQ(chain.element(i), cur);
  }
}

TEST_P(ChainTest, StorageStrategiesAgree) {
  // Reading the pebbled chain in ascending or descending order -- each
  // fills the segment cache differently -- gives the hand-iterated values,
  // on lengths that are (64, 1024) and are not (10, 1022) multiples of the
  // pebble spacing.
  const HashAlgo algo = GetParam();
  const Bytes seed(crypto::digest_size(algo), 0x99);
  for (const auto tagging : {ChainTagging::kRoleBound, ChainTagging::kPlain}) {
    for (const std::size_t n : {4u, 10u, 64u, 1022u, 1024u}) {
      SCOPED_TRACE(::testing::Message()
                   << "tagging=" << static_cast<int>(tagging) << " n=" << n);
      std::vector<Digest> ref{Digest{crypto::ByteView{seed}}};
      for (std::size_t i = 1; i <= n; ++i) {
        ref.push_back(
            tagging == ChainTagging::kPlain
                ? crypto::hash(algo, ref.back().view())
                : crypto::hash2(algo,
                                crypto::as_bytes(i % 2 == 1 ? "S1" : "S2"),
                                ref.back().view()));
      }
      const HashChain ascending{algo, tagging, seed, n};
      EXPECT_EQ(ascending.anchor(), ref[n]);
      for (std::size_t i = 0; i <= n; ++i) {
        ASSERT_EQ(ascending.element(i), ref[i]) << "ascending i=" << i;
      }
      const HashChain descending{algo, tagging, seed, n};
      for (std::size_t i = n + 1; i-- > 0;) {
        ASSERT_EQ(descending.element(i), ref[i]) << "descending i=" << i;
      }
    }
  }
}

TEST_P(ChainTest, GenerationMatchesHash2Reference) {
  // Every element of a freshly built chain against a reference iterated
  // through crypto::hash2, on both compression backends, for digest-sized
  // seeds and a shorter one (whose first step the one-block kernel cannot
  // take). Construction itself costs exactly one finalization and one
  // chain_step stage entry per step.
  const HashAlgo algo = GetParam();
  const std::size_t h = crypto::digest_size(algo);
  for (const bool scalar : {false, true}) {
    std::optional<crypto::ScopedScalarCrypto> force_scalar;
    if (scalar) force_scalar.emplace();
    for (const auto tagging : {ChainTagging::kRoleBound, ChainTagging::kPlain}) {
      const std::size_t tag = step_tag(tagging, 1).size();
      for (const std::size_t seed_len : {h, h - 4}) {
        const Bytes seed(seed_len, static_cast<std::uint8_t>(seed_len));
        for (const std::size_t n : {2u, 4u, 10u, 64u, 1022u, 1024u, 6144u}) {
          SCOPED_TRACE(::testing::Message()
                       << "scalar=" << scalar << " tagging="
                       << static_cast<int>(tagging) << " seed=" << seed_len
                       << " n=" << n);
          trace::StageProfiler::Options opts;
          opts.sample_every = std::size_t{1} << 20;
          trace::StageProfiler prof(opts);
          trace::install_profiler(&prof);
          const crypto::ScopedHashOps ops;
          const HashChain chain{algo, tagging, seed, n};
          const crypto::HashOpCounts built = ops.delta();
          trace::install_profiler(nullptr);
          EXPECT_EQ(built.hash_finalizations, n);
          EXPECT_EQ(built.bytes_hashed, n * (tag + h) - (h - seed_len));
          EXPECT_EQ(prof.totals(trace::Stage::kChainStep).calls, n);

          Digest ref{crypto::ByteView{seed}};
          ASSERT_EQ(chain.element(0), ref);
          for (std::size_t i = 1; i <= n; ++i) {
            ref = crypto::hash2(algo, step_tag(tagging, i), ref.view());
            ASSERT_EQ(chain.element(i), ref) << "i=" << i;
          }
          EXPECT_EQ(chain.anchor(), ref);
        }
      }
    }
  }
}

TEST(ChainMemoryTest, PebblesAndCacheWithinTwoKiB) {
  // n = 1024, k = 32: 33 pebbles + two 32-element cache segments of 20 B
  // SHA-1 values, against 20.5 KiB for all n+1 elements.
  HmacDrbg rng{1u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 1024);
  EXPECT_LE(chain.memory_bytes(), 2048u);
  EXPECT_EQ(chain.memory_bytes(), (33 + 2 * 32) * 20u);
}

TEST(ChainValidationTest, RejectsBadParameters) {
  const Bytes seed(20, 0);
  EXPECT_THROW((HashChain{HashAlgo::kSha1, ChainTagging::kRoleBound, seed, 1}),
               std::invalid_argument);
  EXPECT_THROW((HashChain{HashAlgo::kSha1, ChainTagging::kRoleBound, seed, 7}),
               std::invalid_argument);
  // Plain chains may be odd-length.
  EXPECT_NO_THROW(
      (HashChain{HashAlgo::kSha1, ChainTagging::kPlain, seed, 7}));
}

TEST(ChainValidationTest, ElementBeyondLengthThrows) {
  const Bytes seed(20, 0);
  const HashChain chain{HashAlgo::kSha1, ChainTagging::kRoleBound, seed, 4};
  EXPECT_THROW(chain.element(5), std::out_of_range);
}

TEST(ChainTagsTest, RoleParityHelpers) {
  EXPECT_TRUE(is_s1_index(1));
  EXPECT_TRUE(is_s1_index(63));
  EXPECT_FALSE(is_s1_index(2));
  EXPECT_TRUE(is_s2_index(2));
  EXPECT_FALSE(is_s2_index(0));  // the seed is never disclosed as S2
  EXPECT_FALSE(is_s2_index(3));
}

TEST(ChainTagsTest, ReformattingAttackBlockedByTags) {
  // An S1-tagged element must not verify as the predecessor of another
  // S1-tagged element: H("S1"|h) != H("S2"|h).
  HmacDrbg rng{7u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 8);
  const Digest h5 = chain.element(5);
  const Digest wrong = crypto::hash2(HashAlgo::kSha1, crypto::as_bytes("S1"),
                                     h5.view());
  EXPECT_NE(wrong, chain.element(6));  // element 6 uses the S2 tag
}

TEST(ChainWalkerTest, WalksFromTopMinusOne) {
  HmacDrbg rng{2u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 10);
  ChainWalker walker{chain};
  EXPECT_EQ(walker.next_index(), 9u);
  EXPECT_EQ(walker.remaining(), 9u);
  EXPECT_EQ(walker.take(), chain.element(9));
  EXPECT_EQ(walker.next_index(), 8u);
  EXPECT_EQ(walker.take(), chain.element(8));
}

TEST(ChainWalkerTest, PeekDoesNotConsume) {
  HmacDrbg rng{3u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 6);
  ChainWalker walker{chain};
  EXPECT_EQ(walker.peek(), chain.element(5));
  EXPECT_EQ(walker.peek(1), chain.element(4));
  EXPECT_EQ(walker.next_index(), 5u);
}

TEST(ChainWalkerTest, MultiStepTake) {
  HmacDrbg rng{4u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 10);
  ChainWalker walker{chain};
  EXPECT_EQ(walker.take(2), chain.element(9));  // consumes 9 and 8
  EXPECT_EQ(walker.next_index(), 7u);
}

TEST(ChainWalkerTest, ExhaustionThrows) {
  HmacDrbg rng{5u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 2);
  ChainWalker walker{chain};
  EXPECT_EQ(walker.take(), chain.element(1));
  EXPECT_TRUE(walker.exhausted());
  EXPECT_THROW(walker.take(), std::out_of_range);
  EXPECT_THROW(walker.peek(), std::out_of_range);
}

TEST(ChainVerifierTest, AcceptsSequentialDisclosures) {
  HmacDrbg rng{6u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 10);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 10};
  for (std::size_t i = 9; i >= 1; --i) {
    EXPECT_TRUE(verifier.accept(chain.element(i), i)) << i;
    EXPECT_EQ(verifier.last_index(), i);
  }
}

TEST(ChainVerifierTest, AcceptsGapDisclosures) {
  HmacDrbg rng{7u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 20);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 20};
  EXPECT_TRUE(verifier.accept(chain.element(15), 15));  // gap of 5
  EXPECT_TRUE(verifier.accept(chain.element(14), 14));
}

TEST(ChainVerifierTest, RejectsBeyondMaxGap) {
  HmacDrbg rng{8u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 200);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 200, /*max_gap=*/4};
  EXPECT_FALSE(verifier.accept(chain.element(190), 190));
  EXPECT_TRUE(verifier.accept(chain.element(197), 197));
}

TEST(ChainVerifierTest, RejectsForgedElement) {
  HmacDrbg rng{9u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 10);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 10};
  crypto::Bytes forged(20, 0xee);
  EXPECT_FALSE(verifier.accept(Digest{crypto::ByteView{forged}}, 9));
  // State unchanged: the genuine element still verifies.
  EXPECT_TRUE(verifier.accept(chain.element(9), 9));
}

TEST(ChainVerifierTest, RejectsReplay) {
  HmacDrbg rng{10u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 10);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 10};
  EXPECT_TRUE(verifier.accept(chain.element(9), 9));
  EXPECT_FALSE(verifier.accept(chain.element(9), 9));   // same index replay
  EXPECT_FALSE(verifier.accept(chain.element(10), 10)); // anchor replay
}

TEST(ChainVerifierTest, AutoAcceptFindsIndex) {
  HmacDrbg rng{11u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 20);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 20};
  const auto idx = verifier.accept_auto(chain.element(17));
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 17u);
  EXPECT_EQ(verifier.last_index(), 17u);
  EXPECT_FALSE(verifier.accept_auto(chain.element(19)).has_value());
}

TEST(ChainVerifierTest, CrossChainElementsRejected) {
  HmacDrbg rng{12u};
  const auto a = HashChain::generate(HashAlgo::kSha1,
                                     ChainTagging::kRoleBound, rng, 10);
  const auto b = HashChain::generate(HashAlgo::kSha1,
                                     ChainTagging::kRoleBound, rng, 10);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         a.anchor(), 10};
  EXPECT_FALSE(verifier.accept(b.element(9), 9));
}

TEST(ChainVerifierTest, AcceptOrDeriveHandlesBothDirections) {
  HmacDrbg rng{21u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 20);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 20};
  // Advance to index 15.
  ASSERT_TRUE(verifier.accept(chain.element(15), 15));

  // Below the state: behaves like accept (advances).
  EXPECT_TRUE(verifier.accept_or_derive(chain.element(14), 14));
  EXPECT_EQ(verifier.last_index(), 14u);

  // At the state: idempotent match, no advance.
  EXPECT_TRUE(verifier.accept_or_derive(chain.element(14), 14));
  EXPECT_EQ(verifier.last_index(), 14u);

  // Above the state (out-of-order arrival): derivable, no advance.
  EXPECT_TRUE(verifier.accept_or_derive(chain.element(16), 16));
  EXPECT_TRUE(verifier.accept_or_derive(chain.element(19), 19));
  EXPECT_EQ(verifier.last_index(), 14u);

  // Forged elements fail in every direction.
  const Digest forged{crypto::ByteView{crypto::Bytes(20, 0x5e)}};
  EXPECT_FALSE(verifier.accept_or_derive(forged, 13));
  EXPECT_FALSE(verifier.accept_or_derive(forged, 14));
  EXPECT_FALSE(verifier.accept_or_derive(forged, 16));
}

TEST(ChainVerifierTest, AcceptOrDeriveRespectsMaxGapUpward) {
  HmacDrbg rng{22u};
  const auto chain = HashChain::generate(HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 200);
  ChainVerifier verifier{HashAlgo::kSha1, ChainTagging::kRoleBound,
                         chain.anchor(), 200, /*max_gap=*/4};
  // Walk down within the gap bound to index 190.
  ASSERT_TRUE(verifier.accept(chain.element(196), 196));
  ASSERT_TRUE(verifier.accept(chain.element(192), 192));
  ASSERT_TRUE(verifier.accept(chain.element(190), 190));
  EXPECT_TRUE(verifier.accept_or_derive(chain.element(194), 194));
  // Genuine element 5 steps above the state: refused by the gap bound.
  EXPECT_FALSE(verifier.accept_or_derive(chain.element(195), 195));
}

TEST(ChainAdvanceTest, RejectsBackwardRange) {
  const Digest d{crypto::ByteView{crypto::Bytes(20, 1)}};
  EXPECT_THROW(
      chain_advance(HashAlgo::kSha1, ChainTagging::kPlain, d, 5, 4),
      std::invalid_argument);
}

TEST(ChainGenerateTest, DeterministicFromSeededRng) {
  HmacDrbg a{42u}, b{42u};
  const auto c1 = HashChain::generate(HashAlgo::kSha1,
                                      ChainTagging::kRoleBound, a, 8);
  const auto c2 = HashChain::generate(HashAlgo::kSha1,
                                      ChainTagging::kRoleBound, b, 8);
  EXPECT_EQ(c1.anchor(), c2.anchor());
}

}  // namespace
}  // namespace alpha::hashchain
