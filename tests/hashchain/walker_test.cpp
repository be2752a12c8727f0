// ChainWalker and the one chain representation (sqrt(n) pebbles + a
// two-segment cache) checked against an independent reference -- the chain
// iterated by hand from its seed -- and against its hash-op bounds:
// construction costs exactly n, a full descending walk at most n + k
// (k = round(sqrt(n))), the first k disclosures nothing, a repeated
// element() nothing, a cold one at most k - 1, anchor() nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "crypto/counter.hpp"
#include "hashchain/chain.hpp"

namespace alpha::hashchain {
namespace {

using crypto::Bytes;
using crypto::ScopedHashOps;

Bytes seed_for(HashAlgo algo) {
  Bytes seed(crypto::digest_size(algo));
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  return seed;
}

std::size_t spacing_of(std::size_t n) {
  return static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(n))));
}

// h_0 = seed; h_i = H("S1" | h_{i-1}) for odd i, H("S2" | h_{i-1}) for even
// i on role-bound chains, H(h_{i-1}) on plain ones.
std::vector<Digest> reference_chain(HashAlgo algo, ChainTagging tagging,
                                    const Bytes& seed, std::size_t n) {
  std::vector<Digest> out{Digest{crypto::ByteView{seed}}};
  for (std::size_t i = 1; i <= n; ++i) {
    const Digest& prev = out.back();
    Digest next =
        tagging == ChainTagging::kPlain
            ? crypto::hash(algo, prev.view())
            : crypto::hash2(algo,
                            crypto::as_bytes(i % 2 == 1 ? "S1" : "S2"),
                            prev.view());
    out.push_back(std::move(next));
  }
  return out;
}

std::uint64_t hash_ops_of(const auto& fn) {
  const ScopedHashOps ops;
  fn();
  return ops.delta().hash_finalizations;
}

TEST(ChainWalker, MatchesReferenceAcrossStoragesAlgosTaggings) {
  // The walker's disclosure order against the hand-iterated chain, over
  // every algorithm, both taggings and lengths that are (64, 1024) and are
  // not (10, 1022: spacing 3 and 32) multiples of their pebble spacing.
  for (const auto algo : {HashAlgo::kSha1, HashAlgo::kSha256,
                          HashAlgo::kMmo128}) {
    for (const auto tagging : {ChainTagging::kRoleBound, ChainTagging::kPlain}) {
      for (const std::size_t n : {4u, 10u, 64u, 1022u, 1024u}) {
        SCOPED_TRACE(testing::Message()
                     << crypto::to_string(algo) << " tagging="
                     << static_cast<int>(tagging) << " n=" << n);
        const Bytes seed = seed_for(algo);
        const auto ref = reference_chain(algo, tagging, seed, n);
        const HashChain chain(algo, tagging, seed, n);
        ChainWalker walker(chain);
        // peek across segment boundaries before consuming.
        EXPECT_EQ(walker.peek(0), ref[n - 1]);
        const std::size_t far = std::min<std::size_t>(9, n - 1);
        EXPECT_EQ(walker.peek(far), ref[n - 1 - far]);
        std::size_t index = n - 1;
        while (!walker.exhausted()) {
          ASSERT_EQ(walker.next_index(), index);
          ASSERT_EQ(walker.take(), ref[index]) << "walk i=" << index;
          --index;
        }
        EXPECT_EQ(index, 0u);
        EXPECT_THROW(walker.take(), std::out_of_range);
        EXPECT_THROW(walker.peek(), std::out_of_range);
      }
    }
  }
}

TEST(ChainWalker, TakeWithStrideMatchesReference) {
  // Two elements per step, as the signer consumes a round.
  const auto algo = HashAlgo::kSha1;
  for (const auto tagging : {ChainTagging::kRoleBound, ChainTagging::kPlain}) {
    for (const std::size_t n : {10u, 40u, 1022u, 1024u}) {
      const Bytes seed = seed_for(algo);
      const auto ref = reference_chain(algo, tagging, seed, n);
      const HashChain chain(algo, tagging, seed, n);
      ChainWalker walker(chain);
      std::size_t index = n - 1;
      for (; walker.remaining() >= 2; index -= 2) {
        ASSERT_EQ(walker.take(2), ref[index])
            << "tagging=" << static_cast<int>(tagging) << " n=" << n
            << " i=" << index;
      }
      EXPECT_EQ(index, 1u) << "n=" << n;
    }
  }
}

TEST(ChainWalker, SeedOnlyFullSweepWithinTwoNHashOps) {
  // A chain's whole signer-side life from its seed -- the generation pass
  // plus a full disclosure sweep -- stays within 2n hash operations.
  constexpr std::size_t kN = std::size_t{1} << 14;
  const auto algo = HashAlgo::kSha1;
  const auto total = hash_ops_of([&] {
    const HashChain chain(algo, ChainTagging::kRoleBound, seed_for(algo), kN);
    ChainWalker walker(chain);
    while (!walker.exhausted()) (void)walker.take();
  });
  EXPECT_LE(total, 2 * kN) << "amortized bound violated";
  EXPECT_GE(total, kN);  // sanity: at least the generation pass
}

TEST(ChainWalker, CheckpointFullSweepNearN) {
  // Refilling segments from the stored pebbles keeps a full take() sweep
  // within n + k hash operations.
  const auto algo = HashAlgo::kSha1;
  for (const std::size_t n : {10u, 1022u, 1024u, 4096u, 1u << 14}) {
    const HashChain chain(algo, ChainTagging::kRoleBound, seed_for(algo), n);
    EXPECT_LE(hash_ops_of([&] {
                ChainWalker walker(chain);
                while (!walker.exhausted()) (void)walker.take();
              }),
              n + spacing_of(n))
        << "n=" << n;
  }
}

TEST(ChainCost, ConstructionCostsExactlyN) {
  const auto algo = HashAlgo::kSha1;
  for (const std::size_t n : {4u, 10u, 1022u, 1024u, 1u << 14}) {
    EXPECT_EQ(hash_ops_of([&] {
                const HashChain chain(algo, ChainTagging::kRoleBound,
                                      seed_for(algo), n);
              }),
              n)
        << "n=" << n;
  }
}

TEST(ChainCost, RoundSweepWithinNPlusSpacing) {
  // The signer's round pattern peeks h_i and h_{i-1}, which straddle a
  // segment boundary once per segment: the second cache slot absorbs it.
  const auto algo = HashAlgo::kSha1;
  for (const std::size_t n : {10u, 1022u, 1024u, 1u << 14}) {
    const HashChain chain(algo, ChainTagging::kRoleBound, seed_for(algo), n);
    EXPECT_LE(hash_ops_of([&] {
                ChainWalker walker(chain);
                while (walker.remaining() >= 2) {
                  (void)walker.peek(0);
                  (void)walker.peek(1);
                  (void)walker.take(2);
                }
              }),
              n + spacing_of(n))
        << "n=" << n;
  }
}

TEST(ChainCost, RepeatedElementFreeColdWithinSpacing) {
  const auto algo = HashAlgo::kSha1;
  for (const std::size_t n : {1022u, 1024u}) {
    const std::size_t k = spacing_of(n);
    const HashChain chain(algo, ChainTagging::kRoleBound, seed_for(algo), n);
    for (const std::size_t i : {n - 1, n / 2 + 5, std::size_t{1},
                                std::size_t{0}, n, n - k - 1}) {
      EXPECT_LE(hash_ops_of([&] { (void)chain.element(i); }), k - 1)
          << "cold n=" << n << " i=" << i;
      EXPECT_EQ(hash_ops_of([&] { (void)chain.element(i); }), 0u)
          << "repeated n=" << n << " i=" << i;
    }
  }
}

TEST(ChainCost, FirstDisclosuresReuseTheGenerationPass) {
  // Construction keeps the segments holding h_{n-1} and the k elements
  // below it, so a fresh chain's first k disclosures hash nothing.
  const auto algo = HashAlgo::kSha1;
  for (const std::size_t n : {4u, 10u, 1022u, 1024u}) {
    const HashChain chain(algo, ChainTagging::kRoleBound, seed_for(algo), n);
    EXPECT_EQ(hash_ops_of([&] {
                ChainWalker walker(chain);
                for (std::size_t i = 0; i < spacing_of(n); ++i) {
                  (void)walker.take();
                }
              }),
              0u)
        << "n=" << n;
  }
}

TEST(ChainCost, AnchorNeverHashes) {
  const auto algo = HashAlgo::kSha1;
  for (const std::size_t n : {10u, 1022u, 1024u}) {
    const HashChain chain(algo, ChainTagging::kRoleBound, seed_for(algo), n);
    EXPECT_EQ(hash_ops_of([&] { (void)chain.anchor(); }), 0u) << "n=" << n;
    (void)chain.element(1);  // a cache holding other segments changes nothing
    EXPECT_EQ(hash_ops_of([&] { (void)chain.anchor(); }), 0u) << "n=" << n;
  }
}

}  // namespace
}  // namespace alpha::hashchain
