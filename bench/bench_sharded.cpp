// Sharded runtime scalability: association capacity and worker scaling.
//
// Two sweeps, one JSON artifact (BENCH_sharded.json):
//
//  * assoc sweep -- one ShardedNode pair over the deterministic simulator
//    (inline drive, so the run is single-threaded and replayable), swept to
//    10^6 concurrent associations. Establishment happens in waves so the
//    simulator's in-flight frame queue stays bounded; each association then
//    streams one authenticated message. Measures establishment rate, wall
//    goodput, and that the rings never overflowed.
//
//  * worker sweep -- two ShardedNodes over real UDP loopback in threaded
//    mode (dedicated I/O thread + N shard workers each), fixed association
//    count spanning every shard, fixed message volume. Measures wall-clock
//    goodput at 1/2/4 workers. hardware_concurrency is recorded so the CI
//    gate (scripts/check_perf_smoke.py --sharded) only enforces monotone
//    scaling where the cores exist to scale onto.
//
//   $ bench_sharded                    # full sweep (10^6 assocs)
//   $ bench_sharded --max-assocs 10000 # calibration run
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/sharded_node.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"

using namespace alpha;
using namespace alpha::bench;

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// ------------------------------------------------------------- assoc sweep

struct AssocRow {
  std::size_t assocs = 0;
  std::uint32_t workers = 0;
  std::size_t established = 0;
  double establish_wall_s = 0;
  std::size_t delivered = 0;
  double stream_wall_s = 0;
  std::uint64_t ring_overflows = 0;
};

AssocRow run_assoc_sweep(std::size_t n, std::uint32_t workers) {
  net::Simulator sim;
  net::Network network{sim, /*seed=*/static_cast<std::uint64_t>(n)};
  network.add_node(0);
  network.add_node(1);
  net::LinkConfig link;
  link.latency = net::kMillisecond;
  link.bandwidth_bps = 100'000'000'000;  // capacity, not the link, is measured
  link.mtu = 65'535;
  network.add_link(0, 1, link);

  // One round of one message per association; a short chain keeps the
  // per-association establishment cost (chain generation on both ends) and
  // resident state minimal, which is what lets one process hold 10^6 of them.
  core::Config config;
  config.chain_length = 16;
  config.batch_size = 1;

  core::ShardedNode::Options a_opts;
  a_opts.shard.config = config;
  a_opts.shard.seed = 42;
  a_opts.workers = workers;
  core::ShardedNode node_a{std::make_unique<net::SimTransport>(network, 0),
                           a_opts};

  std::size_t delivered = 0;
  core::ShardedNode::Callbacks b_cbs;
  b_cbs.on_message = [&](std::uint32_t, crypto::ByteView) { ++delivered; };
  core::ShardedNode::Options b_opts;
  b_opts.shard.config = config;
  b_opts.shard.seed = 43;
  b_opts.shard.accept_inbound = true;
  core::ShardedNode node_b{std::make_unique<net::SimTransport>(network, 1),
                           b_opts, b_cbs};

  AssocRow row;
  row.assocs = n;
  row.workers = workers;

  // Establish in waves: bounding the in-flight handshakes bounds the
  // simulator's event queue (10^6 simultaneous HS1s would hold every frame
  // buffer live at once).
  const std::size_t kWave = 10'000;
  const auto t0 = WallClock::now();
  for (std::size_t base = 0; base < n; base += kWave) {
    const std::size_t end = base + kWave < n ? base + kWave : n;
    for (std::size_t a = base; a < end; ++a) {
      const auto assoc_id = static_cast<std::uint32_t>(a + 1);
      node_a.add_initiator(assoc_id, /*peer=*/1, config, {});
      node_a.start(assoc_id);
    }
    while (node_a.established_count() < end &&
           sim.now() < (base / kWave + 1) * 600 * net::kSecond) {
      sim.run_until(sim.now() + net::kSecond);
    }
  }
  row.establish_wall_s = seconds_since(t0);
  row.established = node_a.established_count();

  // Stream one message per association, again in waves.
  const auto w0 = WallClock::now();
  for (std::size_t base = 0; base < n; base += kWave) {
    const std::size_t end = base + kWave < n ? base + kWave : n;
    for (std::size_t a = base; a < end; ++a) {
      node_a.submit(static_cast<std::uint32_t>(a + 1),
                    crypto::Bytes(64, static_cast<std::uint8_t>(a)));
    }
    while (delivered < end &&
           sim.now() < (n / kWave + base / kWave + 2) * 600 * net::kSecond) {
      sim.run_until(sim.now() + net::kSecond);
    }
  }
  row.stream_wall_s = seconds_since(w0);
  row.delivered = delivered;

  for (const auto& ss : node_a.shard_stats()) {
    row.ring_overflows += ss.in_overflows + ss.out_overflows;
  }
  for (const auto& ss : node_b.shard_stats()) {
    row.ring_overflows += ss.in_overflows + ss.out_overflows;
  }
  return row;
}

// ------------------------------------------------------------ worker sweep

struct WorkerRow {
  std::uint32_t workers = 0;
  std::size_t assocs = 0;
  std::size_t messages = 0;
  std::size_t delivered = 0;
  double wall_s = 0;
  double goodput_msgs_per_s = 0;
  std::uint64_t ring_overflows = 0;
};

WorkerRow run_worker_sweep(std::uint32_t workers, std::size_t assocs,
                           std::size_t msgs_per_assoc) {
  core::Config config;
  config.reliable = true;  // every message is retransmitted to completion
  config.chain_length = 4096;
  config.rto_us = 50'000;
  config.max_retries = 200;

  auto udp_a = std::make_unique<net::UdpTransport>();
  auto udp_b = std::make_unique<net::UdpTransport>();
  const std::uint16_t port_b = udp_b->port();

  core::ShardedNode::Options a_opts;
  a_opts.shard.config = config;
  a_opts.shard.seed = 7;
  a_opts.workers = workers;
  core::ShardedNode node_a{std::move(udp_a), a_opts};

  std::atomic<std::size_t> delivered{0};
  core::ShardedNode::Callbacks b_cbs;
  b_cbs.on_message = [&](std::uint32_t, crypto::ByteView) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  };
  core::ShardedNode::Options b_opts;
  b_opts.shard.config = config;
  b_opts.shard.seed = 8;
  b_opts.shard.accept_inbound = true;
  b_opts.workers = workers;
  core::ShardedNode node_b{std::move(udp_b), b_opts, b_cbs};

  WorkerRow row;
  row.workers = workers;
  row.assocs = assocs;
  row.messages = assocs * msgs_per_assoc;

  for (std::size_t a = 0; a < assocs; ++a) {
    node_a.add_initiator(static_cast<std::uint32_t>(a + 1), port_b, config,
                         {});
  }
  // Threaded runtimes launch lazily on the first poll/start/submit; the
  // responder only ever reacts, so kick its threads explicitly.
  node_b.poll(0);
  for (std::size_t a = 0; a < assocs; ++a) {
    node_a.start(static_cast<std::uint32_t>(a + 1));
  }
  const auto hs_deadline = WallClock::now() + std::chrono::seconds(60);
  while (node_a.established_count() < assocs &&
         WallClock::now() < hs_deadline) {
    node_a.poll(10);
  }
  if (node_a.established_count() < assocs) {
    std::fprintf(stderr, "worker sweep: only %zu/%zu established\n",
                 node_a.established_count(), assocs);
    return row;
  }

  // Submit round-robin across associations so every shard streams
  // concurrently; submit() applies ring backpressure by itself.
  const auto t0 = WallClock::now();
  for (std::size_t i = 0; i < msgs_per_assoc; ++i) {
    for (std::size_t a = 0; a < assocs; ++a) {
      node_a.submit(static_cast<std::uint32_t>(a + 1),
                    crypto::Bytes(256, static_cast<std::uint8_t>(i)));
    }
  }
  const auto deadline = WallClock::now() + std::chrono::seconds(120);
  while (delivered.load(std::memory_order_relaxed) < row.messages &&
         WallClock::now() < deadline) {
    // The delivery count lives on the responder, which node_a's poll()
    // cannot see: check it every millisecond.
    node_a.poll(1);
  }
  row.wall_s = seconds_since(t0);
  row.delivered = delivered.load(std::memory_order_relaxed);
  row.goodput_msgs_per_s =
      row.wall_s > 0 ? static_cast<double>(row.delivered) / row.wall_s : 0;
  for (const auto& ss : node_a.shard_stats()) {
    row.ring_overflows += ss.in_overflows + ss.out_overflows;
  }
  for (const auto& ss : node_b.shard_stats()) {
    row.ring_overflows += ss.in_overflows + ss.out_overflows;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_assocs = 1'000'000;
  std::string out_path = "BENCH_sharded.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-assocs") == 0 && i + 1 < argc) {
      max_assocs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr,
                                                          10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--max-assocs N] [--out FILE.json]\n", argv[0]);
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  header("Sharded runtime: association capacity (sim, inline) and worker "
         "scaling (UDP, threaded)");
  std::printf("hardware_concurrency: %u\n", hw);

  JsonWriter json;
  json.begin_object()
      .field("bench", "sharded")
      .field("schema_version", 1)
      .field("hardware_concurrency", static_cast<std::uint64_t>(hw));

  bool ok = true;

  std::printf("\n%9s %8s %12s %15s %10s %12s %10s\n", "assocs", "workers",
              "established", "estab/s (wall)", "delivered", "msg/s (wall)",
              "overflows");
  json.key("assoc_sweep").begin_array();
  for (const std::size_t n : {1'000ull, 10'000ull, 100'000ull,
                              1'000'000ull}) {
    if (n > max_assocs) break;
    const AssocRow r = run_assoc_sweep(n, /*workers=*/4);
    ok = ok && r.established == r.assocs && r.delivered == r.assocs &&
         r.ring_overflows == 0;
    std::printf("%9zu %8u %12zu %15.0f %10zu %12.0f %10llu\n", r.assocs,
                r.workers, r.established,
                r.establish_wall_s > 0
                    ? static_cast<double>(r.established) / r.establish_wall_s
                    : 0.0,
                r.delivered,
                r.stream_wall_s > 0
                    ? static_cast<double>(r.delivered) / r.stream_wall_s
                    : 0.0,
                static_cast<unsigned long long>(r.ring_overflows));
    json.begin_object()
        .field("assocs", static_cast<std::uint64_t>(r.assocs))
        .field("workers", static_cast<std::uint64_t>(r.workers))
        .field("established", static_cast<std::uint64_t>(r.established))
        .field("establish_wall_s", r.establish_wall_s)
        .field("delivered", static_cast<std::uint64_t>(r.delivered))
        .field("stream_wall_s", r.stream_wall_s)
        .field("ring_overflows", r.ring_overflows)
        .end_object();
  }
  json.end_array();

  std::printf("\n%8s %8s %10s %10s %9s %14s %10s\n", "workers", "assocs",
              "messages", "delivered", "wall (s)", "msg/s (wall)",
              "overflows");
  json.key("worker_sweep").begin_array();
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    const WorkerRow r = run_worker_sweep(workers, /*assocs=*/256,
                                         /*msgs_per_assoc=*/40);
    ok = ok && r.delivered == r.messages;
    std::printf("%8u %8zu %10zu %10zu %9.2f %14.0f %10llu\n", r.workers,
                r.assocs, r.messages, r.delivered, r.wall_s,
                r.goodput_msgs_per_s,
                static_cast<unsigned long long>(r.ring_overflows));
    json.begin_object()
        .field("workers", static_cast<std::uint64_t>(r.workers))
        .field("assocs", static_cast<std::uint64_t>(r.assocs))
        .field("messages", static_cast<std::uint64_t>(r.messages))
        .field("delivered", static_cast<std::uint64_t>(r.delivered))
        .field("wall_s", r.wall_s)
        .field("goodput_msgs_per_s", r.goodput_msgs_per_s)
        .field("ring_overflows", r.ring_overflows)
        .end_object();
  }
  json.end_array().end_object();

  if (!json.write_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  std::printf(
      "Reading: the assoc sweep shows one process holding every association\n"
      "of a 10^6-endpoint deployment (disjoint shard slices, rings never\n"
      "overflow); the worker sweep shows wall-clock goodput vs. shard count\n"
      "on real sockets -- meaningful only where hardware_concurrency\n"
      "provides the cores (the CI gate is conditional on that).\n");
  return ok ? 0 : 1;
}
