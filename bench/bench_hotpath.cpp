// Hot-path microbenchmarks with a machine-readable perf trajectory.
//
// Measures the per-operation cost of the signed-packet hot path -- chain
// step, chain generation, prefix MAC, cached HMAC, Merkle batch signing,
// amortized chain traversal -- in three dimensions: wall-clock ns/op, hash
// compressions/op (HashOpCounter) and heap allocations/op (alloc_hook).
// Results go to BENCH_hotpath.json (schema in EXPERIMENTS.md) so successive
// commits can be compared; the "legacy" variants reconstruct the
// pre-optimization path (heap-allocated one-shot hasher, scalar compression,
// per-call HMAC key schedule) for an in-tree speedup baseline.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/counter.hpp"
#include "crypto/cpu.hpp"
#include "crypto/hash.hpp"
#include "crypto/mac.hpp"
#include "crypto/random.hpp"
#include "hashchain/chain.hpp"
#include "merkle/merkle.hpp"
#include "support/alloc_hook.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"

namespace {

using namespace alpha;
using bench::JsonWriter;
using Clock = std::chrono::steady_clock;

volatile std::uint8_t g_sink;
inline void sink(const crypto::Digest& d) {
  g_sink = static_cast<std::uint8_t>(g_sink ^ d.data()[0]);
}

// --recorded: the flight recorder drains the live ring once per measured
// iteration, so every row's cost includes the spill path it would pay in a
// recorded production run. One branch per op in all modes keeps the
// baselines comparable.
trace::FlightRecorder* g_recorder = nullptr;

struct Sample {
  double ns_per_op = 0;
  double hash_ops_per_op = 0;
  double allocs_per_op = 0;
};

/// Runs `op` `iters` times (after a warmup tenth) and reports all three
/// per-op metrics.
template <typename F>
Sample measure(std::size_t iters, F&& op) {
  for (std::size_t i = 0; i < iters / 10 + 1; ++i) op();
  if (g_recorder != nullptr) g_recorder->drain();  // settle warmup events
  const crypto::ScopedHashOps hashes;
  const testsupport::ScopedAllocCount allocs;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    op();
    if (g_recorder != nullptr) g_recorder->drain();
  }
  const auto t1 = Clock::now();
  Sample s;
  s.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(iters);
  s.hash_ops_per_op = static_cast<double>(hashes.delta().hash_finalizations) /
                      static_cast<double>(iters);
  s.allocs_per_op = static_cast<double>(allocs.delta()) /
                    static_cast<double>(iters);
  return s;
}

void emit(JsonWriter& json, const char* name, crypto::HashAlgo algo,
          const Sample& s) {
  json.begin_object()
      .field("name", name)
      .field("algo", crypto::to_string(algo))
      .field("ns_per_op", s.ns_per_op)
      .field("hash_ops_per_op", s.hash_ops_per_op)
      .field("allocs_per_op", s.allocs_per_op)
      .end_object();
  std::printf("%-28s %-12s %10.1f ns/op %7.2f hash/op %7.3f alloc/op\n",
              name, std::string(crypto::to_string(algo)).c_str(), s.ns_per_op,
              s.hash_ops_per_op, s.allocs_per_op);
}

// Pre-optimization chain step: heap-allocated polymorphic hasher and the
// portable scalar compression, exactly what hash2() compiled to before the
// one-shot fast path and the hardware backends existed.
crypto::Digest legacy_chain_step(crypto::HashAlgo algo,
                                 hashchain::ChainTagging tagging,
                                 const crypto::Digest& prev, std::size_t i) {
  const crypto::ScopedScalarCrypto scalar;
  const auto hasher = crypto::make_hasher(algo);
  hasher->update(hashchain::step_tag(tagging, i));
  hasher->update(prev.view());
  return hasher->finalize();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  bool traced = false;    // run every measurement with the trace ring live
  bool recorded = false;  // --traced plus a draining flight recorder
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--traced") {
      traced = true;
    } else if (std::string(argv[i]) == "--recorded") {
      traced = true;
      recorded = true;
    } else {
      out_path = argv[i];
    }
  }
  constexpr std::size_t kIters = 200000;
  constexpr std::size_t kWalkN = std::size_t{1} << 14;
  constexpr std::size_t kWalkSpacing = 128;  // round(sqrt(kWalkN))

  // With --traced the global sink is installed for the whole run: every
  // emit() in library code records into the ring, which must cost no
  // allocations and no measurable slowdown (CI gates on both).
  trace::Ring trace_ring(std::size_t{1} << 12);
  if (traced) trace::install(&trace_ring);

  // --recorded adds the crash-safe spill: a single over-sized segment
  // (far above what the run can emit) so no rotation -- and therefore no
  // allocation -- can land inside a measured loop.
  std::optional<trace::FlightRecorder> recorder;
  if (recorded) {
    trace::FlightOptions fopts;
    fopts.dir = "bench_flight";
    fopts.segment_bytes = std::size_t{32} << 20;
    fopts.config_digest = trace::fnv1a64("bench_hotpath --recorded");
    recorder.emplace(fopts, &trace_ring);
    if (!recorder->ok()) {
      std::fprintf(stderr, "%s\n", recorder->error().c_str());
      return 1;
    }
    g_recorder = &*recorder;
  }

  crypto::HmacDrbg rng(42);
  const crypto::Digest key{crypto::ByteView{rng.bytes(20)}};
  const crypto::Bytes payload = rng.bytes(256);

  bench::header("Hot-path cost (ns/op, hash-ops/op, allocs/op)");

  JsonWriter json;
  json.begin_object()
      .field("bench", "hotpath")
      .field("schema_version", 1)
      .field("traced", traced)
      .field("recorded", recorded)
      .field("hw_acceleration",
             crypto::hw_acceleration_enabled() &&
                 (crypto::cpu_has_sha_ni() || crypto::cpu_has_aes_ni()))
      .field("sha_ni", crypto::cpu_has_sha_ni())
      .field("aes_ni", crypto::cpu_has_aes_ni())
      .key("results")
      .begin_array();

  double step_new_ns = 0;
  double step_legacy_ns = 0;
  for (const auto algo : {crypto::HashAlgo::kSha1, crypto::HashAlgo::kSha256,
                          crypto::HashAlgo::kMmo128}) {
    const auto tagging = hashchain::ChainTagging::kRoleBound;
    const crypto::Digest prev{
        crypto::ByteView{rng.bytes(crypto::digest_size(algo))}};

    const Sample legacy = measure(kIters, [&] {
      sink(legacy_chain_step(algo, tagging, prev, 3));
    });
    emit(json, "chain_step_legacy", algo, legacy);

    const Sample fast = measure(kIters, [&] {
      sink(hashchain::chain_step(algo, tagging, prev, 3));
    });
    emit(json, "chain_step", algo, fast);

    if (algo == crypto::HashAlgo::kSha1) {
      step_legacy_ns = legacy.ns_per_op;
      step_new_ns = fast.ns_per_op;
    }
  }

  // Chain generation, the bulk of an association's setup: 1024 steps from
  // a fixed seed. ns and hash ops are per step, allocations per chain (the
  // pebble and cache vectors). Exactly one hash per step, or the run fails.
  bool generate_one_hash_per_step = true;
  {
    constexpr std::size_t kSteps = 1024;
    const auto algo = crypto::HashAlgo::kSha1;
    const crypto::Bytes seed = rng.bytes(crypto::digest_size(algo));
    const Sample chain = measure(2000, [&] {
      const hashchain::HashChain built(
          algo, hashchain::ChainTagging::kRoleBound, seed, kSteps);
      sink(built.anchor());
    });
    const double steps = static_cast<double>(kSteps);
    json.begin_object()
        .field("name", "chain_generate_1024")
        .field("algo", crypto::to_string(algo))
        .field("ns_per_op", chain.ns_per_op / steps)
        .field("hash_ops_per_op", chain.hash_ops_per_op / steps)
        .field("allocs_per_op", chain.allocs_per_op / steps)
        .field("allocs_per_chain", chain.allocs_per_op)
        .end_object();
    std::printf("%-28s %-12s %10.1f ns/step %5.2f hash/step %7.3f "
                "alloc/chain\n",
                "chain_generate_1024",
                std::string(crypto::to_string(algo)).c_str(),
                chain.ns_per_op / steps, chain.hash_ops_per_op / steps,
                chain.allocs_per_op);
    generate_one_hash_per_step = chain.hash_ops_per_op == steps;
  }

  for (const auto algo : {crypto::HashAlgo::kSha1, crypto::HashAlgo::kMmo128}) {
    const crypto::MacContext prefix(crypto::MacKind::kPrefix, algo,
                                    key.view());
    emit(json, "prefix_mac", algo,
         measure(kIters, [&] { sink(prefix.mac(payload)); }));
  }

  {
    const auto algo = crypto::HashAlgo::kSha1;
    emit(json, "hmac_per_call", algo, measure(kIters, [&] {
           sink(crypto::hmac(algo, key.view(), payload));
         }));
    const crypto::HmacKey cached(algo, key.view());
    emit(json, "hmac_cached", algo,
         measure(kIters, [&] { sink(cached.mac(payload)); }));
  }

  // Amortized full-chain disclosure sweep: the chain is built (n hashes)
  // outside the timed region; the walk refills each sqrt(n) segment of the
  // chain's cache once, so its total must stay within n + spacing. A
  // traversal regression fails the run.
  bool walk_within_bound = true;
  {
    const auto algo = crypto::HashAlgo::kSha1;
    const crypto::Bytes seed = rng.bytes(20);
    const hashchain::HashChain chain(algo, hashchain::ChainTagging::kRoleBound,
                                     seed, kWalkN);
    const crypto::ScopedHashOps hashes;
    const testsupport::ScopedAllocCount allocs;
    const auto t0 = Clock::now();
    hashchain::ChainWalker walker(chain);
    while (!walker.exhausted()) sink(walker.take());
    const auto t1 = Clock::now();
    Sample s;
    const double ops = static_cast<double>(kWalkN - 1);
    const std::uint64_t total = hashes.delta().hash_finalizations;
    s.ns_per_op =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
    s.hash_ops_per_op = static_cast<double>(total) / ops;
    s.allocs_per_op = static_cast<double>(allocs.delta()) / ops;
    emit(json, "chain_walk_2e14", algo, s);
    const std::size_t bound = kWalkN + kWalkSpacing;
    walk_within_bound = total <= bound;
    std::printf("  (walker total hash ops: %llu, bound n + spacing = %zu)\n",
                static_cast<unsigned long long>(total), bound);
  }

  // ALPHA-M batch: tree build over 64 messages + per-packet auth_path and
  // memoized keyed root.
  {
    const auto algo = crypto::HashAlgo::kSha1;
    std::vector<crypto::Bytes> messages;
    for (int i = 0; i < 64; ++i) messages.push_back(rng.bytes(64));
    emit(json, "merkle_build_64", algo, measure(2000, [&] {
           const merkle::MerkleTree tree(algo, messages);
           sink(tree.root());
         }));
    const merkle::MerkleTree tree(algo, messages);
    std::size_t leaf = 0;
    emit(json, "merkle_s2_emit", algo, measure(kIters, [&] {
           sink(tree.keyed_root(key.view()));
           g_sink = static_cast<std::uint8_t>(
               g_sink ^ tree.auth_path(leaf = (leaf + 1) % 64).siblings[0]
                            .data()[0]);
         }));
  }

  // Trace-event recording itself: one 32-byte POD copy into the ring plus
  // the ambient-context stamp. This is the per-event overhead every traced
  // protocol operation pays, so it must be allocation-free.
  {
    trace::Ring* prev = trace::sink();
    trace::Ring emit_ring(std::size_t{1} << 12);
    trace::install(&emit_ring);
    const trace::ScopedContext ctx(/*origin=*/1, /*time_us=*/123);
    std::uint32_t seq = 0;
    emit(json, "trace_emit", crypto::HashAlgo::kSha1, measure(kIters, [&] {
           trace::emit(trace::EventKind::kPacketSent, 7, ++seq, 1,
                       trace::DropReason::kNone, 42);
         }));
    g_sink = static_cast<std::uint8_t>(
        g_sink ^ static_cast<std::uint8_t>(emit_ring.total()));
    trace::install(prev);
  }

  json.end_array()
      .field("chain_step_speedup_sha1", step_legacy_ns / step_new_ns)
      .end_object();

  std::printf("\nchain-step speedup (SHA-1, new vs legacy): %.1fx\n",
              step_legacy_ns / step_new_ns);

  if (recorder.has_value()) {
    g_recorder = nullptr;
    recorder->finalize();
    std::printf("flight recording: %llu events -> bench_flight/\n",
                static_cast<unsigned long long>(recorder->events_written()));
  }

  if (!json.write_file(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!generate_one_hash_per_step) {
    std::fprintf(stderr, "chain_generate_1024 spent other than one hash op "
                         "per step\n");
    return 1;
  }
  if (!walk_within_bound) {
    std::fprintf(stderr, "chain_walk_2e14 exceeded n + spacing hash ops\n");
    return 1;
  }
  return 0;
}
