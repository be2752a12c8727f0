// udp_relay: real loopback sockets. The initiator and responder are
// AlphaNodes over UdpTransport, polled by the main thread; the relay is a
// ShardedNode with one worker and its default binding, so the process runs
// three threads on three sockets. Traffic is open-loop at a fixed rate well
// below capacity: bursts of one ALPHA-C batch per association at seeded
// Poisson times. The generator sleeps until the next due time (in naps of at
// most 50 us, so inbound frames are still polled) and never spins; latency
// is measured from the due time on the wall clock, so a late generator
// shows up as latency, and its lateness is reported.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/node.hpp"
#include "core/sharded_node.hpp"
#include "crypto/counter.hpp"
#include "net/transport.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace {

using alpha::core::AlphaNode;
using alpha::core::ShardedNode;

constexpr std::size_t kBatch = 16;
constexpr std::uint64_t kNapNs = 50'000;
constexpr std::uint64_t kSliceNs = 250'000'000;

/// The three endpoints and their nodes. Declaration order is teardown
/// order in reverse: the relay (and its threads) go first.
struct Triad {
  std::deque<Tally> tallies;  // initiator, relay, responder
  std::vector<alpha::crypto::Bytes> capture;
  DeliverySink sink;
  std::unique_ptr<AlphaNode> initiator;
  std::unique_ptr<AlphaNode> responder;
  std::unique_ptr<ShardedNode> relay;

  Tally& tally_init() { return tallies[0]; }
  Tally& tally_relay() { return tallies[1]; }
  Tally& tally_resp() { return tallies[2]; }
};

std::unique_ptr<Triad> build_triad(const alpha::core::Config& config,
                                   std::size_t assocs, std::uint64_t seed,
                                   const DeliverySink& sink) {
  auto t = std::make_unique<Triad>();
  t->sink = sink;
  for (int i = 0; i < 3; ++i) t->tallies.emplace_back();
  t->tally_relay().role = Role::kRelay;
  auto ua = std::make_unique<alpha::net::UdpTransport>();
  auto ur = std::make_unique<alpha::net::UdpTransport>();
  auto ub = std::make_unique<alpha::net::UdpTransport>();
  const std::uint16_t pa = ua->port(), pr = ur->port(), pb = ub->port();

  ShardedNode::Options ro;
  ro.shard.config = config;
  ro.shard.seed = mix_seed(seed, 201);
  ro.workers = 1;
  t->relay = std::make_unique<ShardedNode>(
      std::make_unique<TracedTransport>(std::move(ur), &t->tally_relay(),
                                        &t->capture, 8192,
                                        /*track_residence=*/true),
      ro);
  std::vector<std::uint32_t> ids(assocs);
  for (std::size_t i = 0; i < assocs; ++i) {
    ids[i] = static_cast<std::uint32_t>(i + 1);
  }
  t->relay->add_relay(pa, pb, ids);

  AlphaNode::Options ao;
  ao.config = config;
  ao.seed = mix_seed(seed, 200);
  t->initiator = std::make_unique<AlphaNode>(
      std::make_unique<TracedTransport>(std::move(ua), &t->tally_init()), ao);

  AlphaNode::Options bo;
  bo.config = config;
  bo.seed = mix_seed(seed, 202);
  bo.accept_inbound = true;
  AlphaNode::Callbacks cb;
  Triad* raw = t.get();
  cb.on_message = [raw](std::uint32_t assoc, alpha::crypto::ByteView m) {
    raw->sink.on_message(assoc, m, wall_ns());
  };
  t->responder = std::make_unique<AlphaNode>(
      std::make_unique<TracedTransport>(std::move(ub), &t->tally_resp()), bo,
      std::move(cb));

  for (const auto id : ids) t->initiator->add_initiator(id, pr);
  t->relay->poll(0);  // launches the relay's I/O and worker threads
  for (const auto id : ids) t->initiator->start(id);
  const std::uint64_t deadline = wall_ns() + 20'000'000'000ull;
  while (t->initiator->established_count() < assocs ||
         t->responder->established_count() < assocs) {
    if (wall_ns() > deadline) {
      throw std::runtime_error("udp associations failed to establish");
    }
    if (t->initiator->poll(0) + t->responder->poll(0) == 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kNapNs));
    }
  }
  return t;
}

Counts take_udp_counts(Triad& t, std::uint64_t ops) {
  Counts c;
  c.ops = ops;
  add_process(c, t.tallies);
  add_snapshot(c, t.initiator->snapshot(true), false);
  add_snapshot(c, t.responder->snapshot(true), false);
  add_snapshot(c, t.relay->snapshot(), true);
  return c;
}

}  // namespace

Result run_udp_relay(const RunConfig& rc) {
  const std::size_t assocs = rc.tiny ? 8 : 32;
  const double rate = rc.tiny ? 2000 : 8000;  // messages/s offered
  alpha::core::Config config;
  config.mode = alpha::wire::Mode::kCumulative;
  config.batch_size = kBatch;
  // Enough chain for the whole run at full batches, with headroom.
  const double rounds = (rc.seconds + 2) * rate / kBatch /
                        static_cast<double>(assocs) * 1.5 + 16;
  config.chain_length =
      std::max<std::size_t>(1024, 2 * static_cast<std::size_t>(rounds) + 4);

  // Inputs: burst due offsets (ns) covering warm-up + the run + headroom.
  const double mean_gap_ns = 1e9 * kBatch / rate;
  const std::size_t bursts_max = static_cast<std::size_t>(
      (rc.seconds + 2) * 1e9 / mean_gap_ns * 1.5 + 64);

  Result r;
  std::vector<double> setups;
  std::unique_ptr<Triad> triad;
  std::unique_ptr<Oracle> oracle;
  std::vector<std::uint64_t> bursts;
  std::vector<double> lat, lateness, depth;
  std::uint64_t heap0 = 0;
  for (std::size_t s = 0; s < (rc.tiny ? 1u : 3u); ++s) {
    triad.reset();
    oracle.reset();
    bursts = {};
    lat = {};
    const std::uint64_t t0 = wall_ns();
    Rng rng(mix_seed(rc.seed, 1));
    bursts.reserve(bursts_max);
    double t = 0;
    for (std::size_t k = 0; k < bursts_max; ++k) {
      t += rng.exp_gap(mean_gap_ns);
      bursts.push_back(static_cast<std::uint64_t>(t));
    }
    oracle = std::make_unique<Oracle>(
        rc.seed, assocs, (bursts_max / assocs + 2) * kBatch);
    lat.reserve(static_cast<std::size_t>(rate * (rc.seconds + 2)));
    lateness.reserve(bursts_max);
    depth.reserve(static_cast<std::size_t>(rc.seconds * 1000) + 16);
    heap0 = heap_bytes();
    DeliverySink sink;
    sink.oracle = oracle.get();
    sink.latency_us = &lat;
    sink.clock_scale_us = 1000.0;
    triad = build_triad(config, assocs, rc.seed, sink);
    setups.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }

  Triad& tr = *triad;
  AlphaNode& a = *tr.initiator;
  AlphaNode& b = *tr.responder;
  const std::uint64_t base = wall_ns() + 1'000'000;
  std::size_t k = 0;
  Ledger ledger;
  bool record_lateness = false;

  // Runs the paced loop until `until` (wall ns): fires due bursts, polls
  // both end nodes, naps when idle.
  auto pump = [&](std::uint64_t until, bool traced) {
    std::uint64_t next_depth = 0;
    while (true) {
      const std::uint64_t now = wall_ns();
      if (now >= until) return;
      if (k < bursts.size() && base + bursts[k] <= now) {
        const std::uint64_t due = base + bursts[k];
        const std::size_t ai = k % assocs;
        const auto id = static_cast<std::uint32_t>(ai + 1);
        if (record_lateness) {
          lateness.push_back(static_cast<double>(now - due) / 1e3);
        }
        const std::uint64_t t0 = traced ? wall_ns() : 0;
        const std::uint64_t send0 = thread_send_ns();
        for (std::size_t m = 0; m < kBatch; ++m) {
          a.submit(id, oracle->make(ai, id, due));
        }
        if (traced) {
          ledger.submit_ns +=
              (wall_ns() - t0) - (thread_send_ns() - send0);
          ledger.msgs += kBatch;
        }
        ++k;
        continue;
      }
      if (traced && now >= next_depth) {
        for (const auto& ss : tr.relay->shard_stats()) {
          depth.push_back(static_cast<double>(ss.in_depth));
        }
        next_depth = now + 1'000'000;
      }
      if (a.poll(0) + b.poll(0) > 0) continue;
      std::uint64_t nap = std::min(kNapNs, until - now);
      if (k < bursts.size() && base + bursts[k] > now) {
        nap = std::min(nap, base + bursts[k] - now);
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
    }
  };

  // Warm-up, then equal wall-time slices.
  pump(base + 1'000'000'000ull, false);
  tr.sink.record = true;
  record_lateness = true;
  SliceClock clock;
  clock.reserve(4096);
  const Counts c0 = take_udp_counts(tr, oracle->delivered());
  const std::uint64_t start = wall_ns();
  const double budget_ns = rc.seconds * 1e9;
  const double untraced_ns = rc.trace ? budget_ns / 2 : budget_ns;
  Counts c1;
  std::uint64_t verify_ns0 = 0, verify_frames0 = 0, cal0 = 0;
  bool traced = false;
  while (true) {
    const double elapsed = static_cast<double>(wall_ns() - start);
    if (elapsed >= budget_ns) break;
    if (!traced && elapsed >= untraced_ns) {
      c1 = take_udp_counts(tr, oracle->delivered());
      tr.sink.record = false;
      record_lateness = false;
      const auto snap = tr.relay->snapshot();
      verify_ns0 = snap.relay.verify_batch_ns.sum();
      verify_frames0 = snap.relay.verify_batch_frames;
      cal0 = calibration_ns();  // one pause, between slices
      traced = true;
    }
    set_tracing(traced);
    // No calibration loop here: it would stall the paced generator.
    clock.begin(oracle->delivered(), /*calibrate=*/false);
    pump(wall_ns() + kSliceNs, traced);
    clock.end(oracle->delivered(), traced);
    set_tracing(false);
  }
  if (!rc.trace) c1 = take_udp_counts(tr, oracle->delivered());
  const std::uint64_t heap1 = heap_bytes();
  std::uint64_t verify_ns = 0, verify_frames = 0;
  double speed = 1.0;  // of the traced window, for the ledger's times
  if (rc.trace) {
    const auto snap = tr.relay->snapshot();
    verify_ns = snap.relay.verify_batch_ns.sum() - verify_ns0;
    verify_frames = snap.relay.verify_batch_frames - verify_frames0;
    speed = 2 * kReferenceCalNs / static_cast<double>(cal0 + calibration_ns());
  }

  // Drain: stop offering, poll until every message arrived or 2 s passed.
  const std::uint64_t drain_until = wall_ns() + 2'000'000'000ull;
  while (oracle->delivered() + oracle->forged() < oracle->attempted() &&
         wall_ns() < drain_until) {
    if (a.poll(0) + b.poll(0) == 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kNapNs));
    }
  }
  double ring_overflows = 0;
  for (const auto& ss : tr.relay->shard_stats()) {
    ring_overflows += static_cast<double>(ss.in_overflows + ss.out_overflows);
  }
  const auto relay_snap = tr.relay->snapshot();
  const std::uint64_t drops =
      relay_snap.relay.dropped_invalid + relay_snap.relay.dropped_unsolicited;
  tr.relay.reset();  // joins the relay's threads: its tally is now ours

  r.attempted = oracle->attempted();
  r.failed = oracle->undelivered() + oracle->forged() + oracle->duplicated();
  r.correct = oracle->forged() == 0 && oracle->duplicated() == 0;
  std::uint64_t out = 0, in = 0;
  for (const Tally& t : tr.tallies) {
    out += t.frames_out.get();
    in += t.frames_in.get();
  }
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "slices=%zu attempted=%llu undelivered=%llu forged=%llu "
                "duplicated=%llu relay_drops=%llu frames_lost=%llu",
                clock.slices().size(),
                static_cast<unsigned long long>(oracle->attempted()),
                static_cast<unsigned long long>(oracle->undelivered()),
                static_cast<unsigned long long>(oracle->forged()),
                static_cast<unsigned long long>(oracle->duplicated()),
                static_cast<unsigned long long>(drops),
                static_cast<unsigned long long>(out - in));
  r.notes.emplace_back(buf);

  Counts window = c1 - c0;
  // The relay worker's hashing is on another thread's counter; its
  // engine stats carry it instead.
  window.hash_ops += window.relay_hashes;
  r.latency_samples = lat.size();
  if (!rc.trace) {
    r.add("ops_per_s", clock.ops_per_s(false), "1/s");
    r.add("cpu_us_per_op", clock.cpu_us_per_op(false), "us");
    r.add("latency_p50_us", quantile(lat, 0.5), "us");
    r.add("latency_p99_us", quantile(lat, 0.99), "us");
    r.add("wire_bytes_per_op",
          window.ops ? static_cast<double>(window.wire_bytes) /
                           static_cast<double>(window.ops)
                     : 0.0,
          "B");
    r.add("mem_bytes_per_assoc",
          (static_cast<double>(heap1) - static_cast<double>(heap0)) /
              static_cast<double>(assocs),
          "B");
    r.add("setup_s", median(setups), "s");
    return r;
  }
  add_tallies(ledger, tr.tallies);
  ledger.relay_ns = verify_ns;
  ledger.relay_frames = verify_frames;
  ledger.window_ns = clock.wall_ns(true);
  ledger.ops = clock.ops(true);
  ledger.app_ns = thread_app_ns();
  LayerInputs li;
  li.socket_transport = true;
  li.prefix = window;
  li.ledger = ledger;
  li.untraced_ops_per_s = clock.ops_per_s(false);
  li.traced_ops_per_s = clock.ops_per_s(true);
  li.recv_batch_calls = tr.tally_relay().recv_batch_calls;
  li.recv_batch_empty = tr.tally_relay().recv_batch_empty;
  li.recv_batch_frames = tr.tally_relay().recv_batch_frames;
  li.lost_frames_per_op =
      oracle->delivered() ? static_cast<double>(out - in) /
                                static_cast<double>(oracle->delivered())
                          : 0.0;
  li.residence_us = tr.tally_relay().residence_us;
  li.ring_in_depth_p99 = quantile(depth, 0.99);
  li.ring_overflows = ring_overflows;
  li.lateness_us_p99 = quantile(lateness, 0.99);
  li.latency_samples = lat.size();
  double cpu = 0;
  for (const Slice& s : clock.slices()) {
    if (s.traced) cpu += static_cast<double>(s.cpu_ns);
  }
  li.cpu_window_ns = cpu;
  li.speed = speed;
  add_layer_metrics(li, r);
  replay_layers({&tr.capture, config, rc.seed}, r);
  return r;
}

}  // namespace perfbench
