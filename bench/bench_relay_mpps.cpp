// Relay fast-path throughput: forwarded-and-verified packets per second.
//
// Three sweeps, one JSON artifact (BENCH_relay_mpps.json):
//
//  * mpps sweep (single core) -- pre-records authentic ALPHA-C traffic
//    (engine-generated S1/A1/S2 rounds, round-robin interleaved across the
//    associations to defeat cache locality), then replays the schedule
//    through RelayEngine, timing verify-and-forward wall clock. Generation
//    is outside the timed window; the replay is single-threaded, so the
//    rates are per core.
//
//  * worker sweep -- a ShardedNode relay between two end nodes on real UDP
//    loopback, relay bindings sharded by assoc id across 1/2/4 workers.
//    Measures end-to-end delivery and the relay's forwarding rate.
//    hardware_concurrency is recorded so the CI gate
//    (scripts/check_perf_smoke.py --relay) only enforces scaling where the
//    cores exist to scale onto.
//
//  * table5_modern -- the paper's Table 5 sizes ALPHA's feasibility by
//    SHA-1 delay on 2008 router hardware. This section re-anchors it:
//    measured host SHA-1 cost, the measured relay cost per verified packet
//    on this host, and the per-device estimates at ~3 short-input hashes
//    per forwarded S2 (1 chain step + keyed MAC).
//
//   $ bench_relay_mpps                        # full sweep
//   $ bench_relay_mpps --target-frames 20000  # calibration run
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/relay.hpp"
#include "core/sharded_node.hpp"
#include "crypto/sha1.hpp"
#include "net/transport.hpp"
#include "platform/devices.hpp"

using namespace alpha;
using namespace alpha::bench;

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// --------------------------------------------------------------- mpps sweep

constexpr std::size_t kRoundMsgs = 16;  // S2s per S1 (ALPHA-C batch)

core::Config sweep_config(std::size_t rounds) {
  core::Config config;
  config.mode = wire::Mode::kCumulative;
  config.batch_size = kRoundMsgs;
  config.chain_length = 2 * rounds + 4;
  return config;
}

/// One association's pre-generated traffic: handshakes plus `rounds`
/// engine-authentic rounds of S1 / A1 / kRoundMsgs S2 frames.
struct RoundFrames {
  crypto::Bytes s1;
  crypto::Bytes a1;
  std::vector<crypto::Bytes> s2s;
};

struct AssocTraffic {
  crypto::Bytes hs1;
  crypto::Bytes hs2;
  std::vector<RoundFrames> rounds;
};

AssocTraffic generate_assoc(const core::Config& config, std::uint32_t assoc,
                            std::size_t rounds, std::uint64_t seed) {
  crypto::HmacDrbg rng{seed};
  auto sig = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng,
      config.chain_length);
  auto ack = hashchain::HashChain::generate(
      config.algo, hashchain::ChainTagging::kRoleBound, rng,
      config.chain_length);

  AssocTraffic traffic;
  wire::HandshakePacket hs1;
  hs1.hdr = {assoc, 0};
  hs1.algo = config.algo;
  hs1.chain_length = static_cast<std::uint32_t>(config.chain_length);
  hs1.sig_anchor = sig.anchor();
  hs1.sig_anchor_index = static_cast<std::uint32_t>(sig.length());
  hs1.ack_anchor = ack.anchor();
  hs1.ack_anchor_index = static_cast<std::uint32_t>(ack.length());
  traffic.hs1 = hs1.encode();
  wire::HandshakePacket hs2 = hs1;
  hs2.is_response = true;
  traffic.hs2 = hs2.encode();

  std::vector<crypto::Bytes> emitted;
  core::SignerEngine::Callbacks scb;
  scb.send = [&](crypto::Bytes f) { emitted.push_back(std::move(f)); };
  core::SignerEngine signer{config,      assoc, sig, ack.anchor(),
                            ack.length(), std::move(scb)};
  core::VerifierEngine::Callbacks vcb;
  vcb.send = [&](crypto::Bytes f) { emitted.push_back(std::move(f)); };
  core::VerifierEngine verifier{config,       assoc,           ack,
                                sig.anchor(), sig.length(),    std::move(vcb),
                                rng};

  traffic.rounds.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    RoundFrames round;
    for (std::size_t m = 0; m < kRoundMsgs; ++m) {
      signer.submit(crypto::Bytes(256, static_cast<std::uint8_t>(m)), 0);
    }
    // A full ALPHA-C batch emits exactly one S1; answering it with the
    // verifier's A1 releases the round's S2s.
    if (emitted.size() != 1) {
      std::fprintf(stderr, "generation: expected 1 S1, got %zu frames\n",
                   emitted.size());
      std::exit(1);
    }
    round.s1 = std::move(emitted[0]);
    emitted.clear();
    const auto s1 = wire::decode(round.s1);
    verifier.on_s1(std::get<wire::S1Packet>(*s1));
    round.a1 = std::move(emitted.at(0));
    emitted.clear();
    const auto a1 = wire::decode(round.a1);
    signer.on_a1(std::get<wire::A1Packet>(*a1), 0);
    if (emitted.size() != kRoundMsgs) {
      std::fprintf(stderr, "generation: expected %zu S2s, got %zu\n",
                   kRoundMsgs, emitted.size());
      std::exit(1);
    }
    round.s2s = std::move(emitted);
    emitted.clear();
    traffic.rounds.push_back(std::move(round));
  }
  return traffic;
}

struct Item {
  core::Direction dir;
  const crypto::Bytes* frame;
};

/// Round-robin interleave across associations (all S1s of a round, all A1s,
/// then the S2s message-wise across associations): the worst realistic
/// demux pattern -- consecutive frames never share an association when
/// more than one exists.
std::vector<Item> build_schedule(const std::vector<AssocTraffic>& assocs,
                                 std::size_t rounds) {
  std::vector<Item> schedule;
  schedule.reserve(assocs.size() * rounds * (2 + kRoundMsgs));
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& a : assocs) {
      schedule.push_back({core::Direction::kForward, &a.rounds[r].s1});
    }
    for (const auto& a : assocs) {
      schedule.push_back({core::Direction::kReverse, &a.rounds[r].a1});
    }
    for (std::size_t m = 0; m < kRoundMsgs; ++m) {
      for (const auto& a : assocs) {
        schedule.push_back({core::Direction::kForward, &a.rounds[r].s2s[m]});
      }
    }
  }
  return schedule;
}

struct MppsRow {
  std::size_t assocs = 0;
  std::size_t frames = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  double wall_s = 0;
  double pkts_per_s = 0;
};

MppsRow replay(const core::Config& config,
               const std::vector<AssocTraffic>& assocs,
               const std::vector<Item>& schedule) {
  core::RelayEngine::Callbacks cb;
  cb.forward = [](core::Direction, crypto::ByteView) {};
  core::RelayEngine relay{config, {}, std::move(cb)};
  for (const auto& a : assocs) {
    relay.on_frame(core::Direction::kForward, a.hs1);
    relay.on_frame(core::Direction::kReverse, a.hs2);
  }
  const std::uint64_t before = relay.stats().forwarded;
  const auto t0 = WallClock::now();
  for (const auto& it : schedule) relay.on_frame(it.dir, *it.frame);
  MppsRow row;
  row.wall_s = seconds_since(t0);
  row.assocs = assocs.size();
  row.frames = schedule.size();
  row.forwarded = relay.stats().forwarded - before;
  row.dropped = relay.stats().dropped_invalid +
                relay.stats().dropped_unsolicited;
  row.pkts_per_s = row.wall_s > 0 ? row.frames / row.wall_s : 0;
  return row;
}

// ------------------------------------------------------------ worker sweep

struct WorkerRow {
  std::uint32_t workers = 0;
  std::size_t assocs = 0;
  std::size_t messages = 0;
  std::size_t delivered = 0;
  std::uint64_t relay_forwarded = 0;
  std::uint64_t relay_dropped = 0;
  double wall_s = 0;
  double relay_fwd_per_s = 0;
  double goodput_msgs_per_s = 0;
  std::uint64_t ring_overflows = 0;
  double verify_batch_p50_ns = 0;
};

WorkerRow run_worker_sweep(std::uint32_t relay_workers, std::size_t assocs,
                           std::size_t msgs_per_assoc) {
  core::Config config;
  config.reliable = true;
  config.chain_length = 4096;
  config.rto_us = 50'000;
  config.max_retries = 200;

  auto udp_a = std::make_unique<net::UdpTransport>();
  auto udp_b = std::make_unique<net::UdpTransport>();
  auto udp_r = std::make_unique<net::UdpTransport>();
  const std::uint16_t port_a = udp_a->port();
  const std::uint16_t port_b = udp_b->port();
  const std::uint16_t port_r = udp_r->port();

  core::ShardedNode::Options r_opts;
  r_opts.shard.config = config;
  r_opts.shard.seed = 9;
  r_opts.workers = relay_workers;
  core::ShardedNode relay{std::move(udp_r), r_opts};
  std::vector<std::uint32_t> ids(assocs);
  for (std::size_t i = 0; i < assocs; ++i) {
    ids[i] = static_cast<std::uint32_t>(i + 1);
  }
  relay.add_relay(/*upstream=*/port_a, /*downstream=*/port_b, ids);

  core::ShardedNode::Options a_opts;
  a_opts.shard.config = config;
  a_opts.shard.seed = 7;
  a_opts.workers = 1;
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
  b_opts.workers = 1;
  core::ShardedNode node_b{std::move(udp_b), b_opts, b_cbs};

  WorkerRow row;
  row.workers = relay_workers;
  row.assocs = assocs;
  row.messages = assocs * msgs_per_assoc;

  for (const auto id : ids) node_a.add_initiator(id, port_r, config, {});
  relay.poll(0);  // threaded runtimes launch lazily; the relay only reacts
  node_b.poll(0);
  for (const auto id : ids) node_a.start(id);
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

  const auto t0 = WallClock::now();
  for (std::size_t i = 0; i < msgs_per_assoc; ++i) {
    for (const auto id : ids) {
      node_a.submit(id, crypto::Bytes(256, static_cast<std::uint8_t>(i)));
    }
  }
  const auto deadline = WallClock::now() + std::chrono::seconds(120);
  while (delivered.load(std::memory_order_relaxed) < row.messages &&
         WallClock::now() < deadline) {
    node_a.poll(20);
  }
  row.wall_s = seconds_since(t0);
  row.delivered = delivered.load(std::memory_order_relaxed);
  row.goodput_msgs_per_s =
      row.wall_s > 0 ? static_cast<double>(row.delivered) / row.wall_s : 0;

  core::NodeSnapshot snap = relay.snapshot();
  row.relay_forwarded = snap.relay.forwarded;
  row.relay_dropped =
      snap.relay.dropped_invalid + snap.relay.dropped_unsolicited;
  row.relay_fwd_per_s =
      row.wall_s > 0 ? static_cast<double>(row.relay_forwarded) / row.wall_s
                     : 0;
  // quantile() returns NaN on an empty histogram (a run that relayed
  // nothing); 0 keeps the JSON artifact numeric.
  row.verify_batch_p50_ns = snap.relay.verify_batch_ns.count() > 0
                                ? snap.relay.verify_batch_ns.quantile(0.5)
                                : 0.0;
  for (const auto& ss : relay.shard_stats()) {
    row.ring_overflows += ss.in_overflows + ss.out_overflows;
  }
  return row;
}

// ----------------------------------------------------------- table5 modern

double measure_sha1_us(std::size_t input_bytes, int iters) {
  crypto::Bytes buf(input_bytes, 0x5a);
  volatile std::uint8_t sink = 0;
  const auto t0 = WallClock::now();
  for (int i = 0; i < iters; ++i) {
    crypto::Sha1 h;
    h.update(buf);
    sink = sink ^ h.finalize().data()[0];
  }
  (void)sink;
  return seconds_since(t0) * 1e6 / iters;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_frames = 120'000;
  std::size_t worker_msgs = 20;
  std::string out_path = "BENCH_relay_mpps.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--target-frames") == 0 && i + 1 < argc) {
      target_frames =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--worker-msgs") == 0 && i + 1 < argc) {
      worker_msgs =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--target-frames N] [--worker-msgs N] "
                   "[--out FILE.json]\n",
                   argv[0]);
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  header("Relay fast path: verified-and-forwarded pkts/s per core, "
         "multi-worker relay scaling");
  std::printf("hardware_concurrency: %u\n", hw);

  JsonWriter json;
  json.begin_object()
      .field("bench", "relay_mpps")
      .field("schema_version", 2)
      .field("hardware_concurrency", static_cast<std::uint64_t>(hw))
      .field("round_msgs", static_cast<std::uint64_t>(kRoundMsgs));

  bool ok = true;

  std::printf("\n%8s %10s %10s %9s %14s\n", "assocs", "frames",
              "forwarded", "wall (s)", "pkts/s/core");
  json.key("mpps_sweep").begin_array();
  double best_ns_per_pkt = 0;
  for (const std::size_t assocs : {1u, 16u, 256u}) {
    const std::size_t frames_per_round = assocs * (2 + kRoundMsgs);
    std::size_t rounds = target_frames / frames_per_round;
    if (rounds < 4) rounds = 4;
    const core::Config config = sweep_config(rounds);

    std::vector<AssocTraffic> traffic;
    traffic.reserve(assocs);
    for (std::size_t a = 0; a < assocs; ++a) {
      traffic.push_back(generate_assoc(config,
                                       static_cast<std::uint32_t>(a + 1),
                                       rounds, /*seed=*/1000 + a));
    }
    const std::vector<Item> schedule = build_schedule(traffic, rounds);

    const MppsRow row = replay(config, traffic, schedule);
    ok = ok && row.forwarded == row.frames && row.dropped == 0;
    std::printf("%8zu %10zu %10llu %9.3f %14.0f\n", row.assocs, row.frames,
                static_cast<unsigned long long>(row.forwarded), row.wall_s,
                row.pkts_per_s);
    json.begin_object()
        .field("assocs", static_cast<std::uint64_t>(row.assocs))
        .field("engine", "relay")
        .field("frames", static_cast<std::uint64_t>(row.frames))
        .field("forwarded", row.forwarded)
        .field("dropped", row.dropped)
        .field("wall_s", row.wall_s)
        .field("pkts_per_s", row.pkts_per_s)
        .end_object();
    if (row.pkts_per_s > 0 &&
        (best_ns_per_pkt == 0 || 1e9 / row.pkts_per_s < best_ns_per_pkt)) {
      best_ns_per_pkt = 1e9 / row.pkts_per_s;
    }
  }
  json.end_array();

  std::printf("\n%8s %8s %10s %10s %9s %14s %14s %10s\n", "workers",
              "assocs", "messages", "delivered", "wall (s)", "relay fwd/s",
              "msg/s (e2e)", "overflows");
  json.key("worker_sweep").begin_array();
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    const WorkerRow r = run_worker_sweep(workers, /*assocs=*/64, worker_msgs);
    ok = ok && r.delivered == r.messages && r.relay_dropped == 0;
    std::printf("%8u %8zu %10zu %10zu %9.2f %14.0f %14.0f %10llu\n",
                r.workers, r.assocs, r.messages, r.delivered, r.wall_s,
                r.relay_fwd_per_s, r.goodput_msgs_per_s,
                static_cast<unsigned long long>(r.ring_overflows));
    json.begin_object()
        .field("workers", static_cast<std::uint64_t>(r.workers))
        .field("assocs", static_cast<std::uint64_t>(r.assocs))
        .field("messages", static_cast<std::uint64_t>(r.messages))
        .field("delivered", static_cast<std::uint64_t>(r.delivered))
        .field("relay_forwarded", r.relay_forwarded)
        .field("relay_dropped", r.relay_dropped)
        .field("wall_s", r.wall_s)
        .field("relay_fwd_per_s", r.relay_fwd_per_s)
        .field("goodput_msgs_per_s", r.goodput_msgs_per_s)
        .field("verify_batch_p50_ns", r.verify_batch_p50_ns)
        .field("ring_overflows", r.ring_overflows)
        .end_object();
  }
  json.end_array();

  // Table 5, re-anchored: the paper sized relay feasibility by SHA-1 delay
  // on 2008 router hardware; a forwarded S2 costs ~3 short-input hashes
  // (one chain step + a keyed MAC over the packet).
  const double host_sha1_20_us = measure_sha1_us(20, 200'000);
  const platform::DeviceSpec devices[] = {
      platform::devices::ar2315(),
      platform::devices::bcm5365(),
      platform::devices::geode_lx(),
  };
  std::printf("\nTable 5 (modern): host SHA-1(20 B) %.3f us; measured relay "
              "cost %.0f ns/pkt (best mpps row)\n",
              host_sha1_20_us, best_ns_per_pkt);
  json.key("table5_modern")
      .begin_object()
      .field("host_sha1_20B_us", host_sha1_20_us)
      .field("measured_relay_ns_per_pkt", best_ns_per_pkt)
      .field("measured_relay_kpps_per_core",
             best_ns_per_pkt > 0 ? 1e6 / best_ns_per_pkt : 0)
      .key("devices")
      .begin_array();
  std::printf("%-44s %14s %16s\n", "device", "SHA-1(20B)", "est relay kpps");
  for (const auto& dev : devices) {
    const double dev_us = dev.hash.cost_us(20);
    const double est_kpps = dev_us > 0 ? 1e3 / (3 * dev_us) : 0;
    std::printf("%-44s %11.3f ms %16.1f\n", dev.name.c_str(), dev_us / 1000.0,
                est_kpps);
    json.begin_object()
        .field("name", dev.name.c_str())
        .field("sha1_20B_us_model", dev_us)
        .field("est_relay_kpps", est_kpps)
        .end_object();
  }
  json.end_array().end_object();
  json.end_object();

  if (!json.write_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  std::printf(
      "Reading: the mpps sweep replays engine-authentic schedules through\n"
      "RelayEngine on one core, so it prices the per-frame verdict itself.\n"
      "The worker sweep shows the same bindings sharded across cores\n"
      "(meaningful only where hardware_concurrency provides them);\n"
      "table5_modern re-anchors the paper's router feasibility numbers to\n"
      "current hash rates.\n");
  return ok ? 0 : 1;
}
