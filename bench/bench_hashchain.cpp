// Micro-benchmarks: hash-chain operations + the storage ablation.
//
// DESIGN.md §5 ablation: the chain's one representation (sqrt(n) pebbles
// plus a two-segment cache, about one hash per disclosed element) against a
// reconstructed full store (all n+1 elements resident, O(1) access). Both
// walks traverse a chain top-down the way a signer discloses, and both
// report their resident bytes as memoryB.
#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/random.hpp"
#include "hashchain/chain.hpp"

using namespace alpha;
using namespace alpha::hashchain;

namespace {

void BM_ChainGenerate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const crypto::Bytes seed(20, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashChain{crypto::HashAlgo::kSha1,
                                       ChainTagging::kRoleBound, seed, n});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChainGenerate)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ChainWalk(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const crypto::Bytes seed(20, 1);
  const HashChain chain{crypto::HashAlgo::kSha1, ChainTagging::kRoleBound,
                        seed, n};
  for (auto _ : state) {
    ChainWalker walker{chain};
    while (!walker.exhausted()) {
      benchmark::DoNotOptimize(walker.take());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
  state.counters["memoryB"] = static_cast<double>(chain.memory_bytes());
}
BENCHMARK(BM_ChainWalk)->Arg(256)->Arg(1024)->Arg(4096);

// The storage this chain replaced: every element resident, built by the
// bench from the chain so the walk is a plain indexed read.
void BM_ChainWalk_full_store_reconstructed(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const crypto::Bytes seed(20, 1);
  const HashChain chain{crypto::HashAlgo::kSha1, ChainTagging::kRoleBound,
                        seed, n};
  std::vector<Digest> elements;
  elements.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i) elements.push_back(chain.element(i));
  for (auto _ : state) {
    for (std::size_t i = n - 1; i > 0; --i) {
      Digest disclosed = elements[i];  // by value, as element() returns
      benchmark::DoNotOptimize(disclosed);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
  state.counters["memoryB"] =
      static_cast<double>(elements.size() * crypto::digest_size(chain.algo()));
}
BENCHMARK(BM_ChainWalk_full_store_reconstructed)
    ->Arg(256)->Arg(1024)->Arg(4096);

void BM_ChainVerifyStep(benchmark::State& state) {
  crypto::HmacDrbg rng{1};
  const auto chain = HashChain::generate(crypto::HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 4096);
  for (auto _ : state) {
    state.PauseTiming();
    ChainVerifier verifier{crypto::HashAlgo::kSha1, ChainTagging::kRoleBound,
                           chain.anchor(), 4096};
    state.ResumeTiming();
    for (std::size_t i = 4095; i > 4095 - 64; --i) {
      benchmark::DoNotOptimize(verifier.accept(chain.element(i), i));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ChainVerifyStep);

void BM_ChainVerifyWithGap(benchmark::State& state) {
  // Packet loss: the disclosed element is `gap` steps below the last one.
  const std::size_t gap = static_cast<std::size_t>(state.range(0));
  crypto::HmacDrbg rng{2};
  const auto chain = HashChain::generate(crypto::HashAlgo::kSha1,
                                         ChainTagging::kRoleBound, rng, 8192);
  for (auto _ : state) {
    state.PauseTiming();
    ChainVerifier verifier{crypto::HashAlgo::kSha1, ChainTagging::kRoleBound,
                           chain.anchor(), 8192, /*max_gap=*/256};
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        verifier.accept(chain.element(8192 - gap), 8192 - gap));
  }
}
BENCHMARK(BM_ChainVerifyWithGap)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
