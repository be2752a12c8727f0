// The three simulated workloads. Each runs single-threaded over
// net::Simulator / net::Network with loss-free links, drives only the node
// API (AlphaNode: add_initiator / add_relay / start / submit) and hands every
// node a TracedTransport around its SimTransport.
//
// Timing: after set-up and a warm-up slice, the fixed virtual-time schedule
// is cut into equal slices of deterministic work; ops/s and CPU/op are the
// medians over slices. The first slices form the measurement prefix, over
// which every exact count (hashes, allocations, frames, bytes, virtual
// latency, heap) is taken, so those repeat to the digit for one seed no
// matter how fast the host ran.
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/node.hpp"
#include "net/network.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace {

using alpha::core::AlphaNode;
using alpha::core::Config;
using alpha::net::SimTime;

constexpr SimTime kMs = alpha::net::kMillisecond;

struct PathSpec {
  std::size_t relays = 0;
  Config config;
  SimTime link_latency = 2 * kMs;
  SimTime jitter = 0;
  double loss = 0.0;
};

/// A linear simulated path: node 0 is the initiator, nodes 1..relays relay,
/// the last node is the responder (accepting associations on demand).
struct SimPath {
  alpha::net::Simulator sim;
  alpha::net::Network net;
  std::deque<Tally> tallies;
  std::vector<std::unique_ptr<AlphaNode>> nodes;
  std::vector<alpha::crypto::Bytes> capture;
  DeliverySink sink;

  explicit SimPath(std::uint64_t seed) : net(sim, seed) {}

  AlphaNode& initiator() { return *nodes.front(); }
  AlphaNode& responder() { return *nodes.back(); }
  bool is_relay(std::size_t i) const { return i > 0 && i + 1 < nodes.size(); }
};

// The replay uses frames arriving at node 1: the first relay, or the
// responder on a direct link.
constexpr std::size_t kCaptureNode = 1;
constexpr std::size_t kCaptureCap = 8192;

std::unique_ptr<SimPath> build_path(const PathSpec& spec, std::uint64_t seed,
                                    const DeliverySink& sink) {
  auto p = std::make_unique<SimPath>(mix_seed(seed, 11));
  p->sink = sink;
  const std::size_t n = spec.relays + 2;
  alpha::net::LinkConfig link;
  link.latency = spec.link_latency;
  link.jitter = spec.jitter;
  link.loss_rate = spec.loss;
  link.bandwidth_bps = 1'000'000'000;  // no serialization queueing
  for (std::size_t i = 0; i < n; ++i) {
    p->net.add_node(static_cast<alpha::net::NodeId>(i));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    p->net.add_link(static_cast<alpha::net::NodeId>(i),
                    static_cast<alpha::net::NodeId>(i + 1), link);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Tally& t = p->tallies.emplace_back();
    t.role = i > 0 && i + 1 < n ? Role::kRelay : Role::kHost;
    const bool cap = i == kCaptureNode;
    auto transport = std::make_unique<TracedTransport>(
        std::make_unique<alpha::net::SimTransport>(
            p->net, static_cast<alpha::net::NodeId>(i)),
        &t, cap ? &p->capture : nullptr, cap ? kCaptureCap : 0);
    AlphaNode::Options o;
    o.config = spec.config;
    o.seed = mix_seed(seed, 100 + i);
    AlphaNode::Callbacks cb;
    if (i + 1 == n) {
      o.accept_inbound = true;
      SimPath* raw = p.get();
      cb.on_message = [raw](std::uint32_t assoc, alpha::crypto::ByteView m) {
        raw->sink.on_message(assoc, m, raw->sim.now());
      };
    }
    p->nodes.push_back(
        std::make_unique<AlphaNode>(std::move(transport), o, std::move(cb)));
    if (i > 0 && i + 1 < n) p->nodes.back()->add_relay(i - 1, i + 1);
  }
  return p;
}

/// Opens associations first_id..first_id+count-1 and runs the simulator
/// until both ends report them established.
void establish(SimPath& p, std::uint32_t first_id, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const auto id = static_cast<std::uint32_t>(first_id + k);
    p.initiator().add_initiator(id, 1);
    p.initiator().start(id);
  }
  const SimTime limit = p.sim.now() + 60 * alpha::net::kSecond;
  while (p.initiator().established_count() < count ||
         p.responder().established_count() < count) {
    if (p.sim.now() > limit) {
      throw std::runtime_error("associations failed to establish");
    }
    p.sim.run_until(p.sim.now() + 10 * kMs);
  }
}

/// Exact counts at one instant. At the start of a window the snapshots go
/// first, so their own allocations fall outside it; at the end, last.
Counts take_counts(SimPath& p, std::uint64_t ops, bool window_start) {
  Counts c;
  c.ops = ops;
  if (!window_start) add_process(c, p.tallies);
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    add_snapshot(c, p.nodes[i]->snapshot(/*per_assoc=*/!p.is_relay(i)),
                 p.is_relay(i));
  }
  if (window_start) add_process(c, p.tallies);
  return c;
}

/// Runs the simulator until every attempted message is delivered, bounded
/// in virtual time (lost messages in a lossy self-test never arrive).
void drain(SimPath& p, const Oracle& oracle) {
  const SimTime limit = p.sim.now() + 10 * alpha::net::kSecond;
  while (oracle.delivered() + oracle.forged() < oracle.attempted() &&
         p.sim.now() < limit) {
    p.sim.run_until(p.sim.now() + 50 * kMs);
  }
}

std::uint64_t relay_drops(SimPath& p) {
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    if (!p.is_relay(i)) continue;
    const auto s = p.nodes[i]->snapshot();
    d += s.relay.dropped_invalid + s.relay.dropped_unsolicited;
  }
  return d;
}

/// Folds one path's traced timing into the ledger: simulator self time is
/// run_until minus every node callback (which already contain the nested
/// sends and the oracle).
void finish_ledger(Ledger& l, const SimPath& p, std::uint64_t run_ns) {
  add_tallies(l, p.tallies);
  std::uint64_t callbacks = 0;
  for (const Tally& t : p.tallies) {
    callbacks += t.cb_total_ns + t.timer_total_ns;
  }
  l.sim_self_ns += run_ns > callbacks ? run_ns - callbacks : 0;
}

/// The per-layer result of a simulated workload: the ledger of the traced
/// slices, the exact prefix counts, and the replay of the captured frames.
void add_sim_layers(Result& r, const SliceClock& clock, Ledger ledger,
                    const Counts& prefix,
                    const std::vector<alpha::crypto::Bytes>& capture,
                    const Config& config, std::uint64_t seed) {
  ledger.window_ns = clock.wall_ns(true);
  ledger.ops = clock.ops(true);
  ledger.app_ns = thread_app_ns();
  LayerInputs in;
  in.prefix = prefix;
  in.ledger = ledger;
  in.untraced_ops_per_s = clock.ops_per_s(false);
  in.traced_ops_per_s = clock.ops_per_s(true);
  in.latency_samples = r.latency_samples;
  in.speed = clock.host_speed(true);
  add_layer_metrics(in, r);
  replay_layers({&capture, config, seed}, r);
}

double path_rtt_us(const PathSpec& spec) {
  return 2.0 * static_cast<double>((spec.relays + 1) * spec.link_latency);
}

void report_outcome(Result& r, const Oracle& o, std::uint64_t drops,
                    bool lossy) {
  r.attempted += o.attempted();
  r.failed += o.undelivered() + o.forged() + o.duplicated();
  if (o.forged() > 0 || o.duplicated() > 0) r.correct = false;
  if (!lossy && (o.undelivered() > 0 || drops > 0)) r.correct = false;
  if (o.forged() || o.duplicated() || o.undelivered() || drops) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "oracle: undelivered=%llu forged=%llu duplicated=%llu "
                  "relay_drops=%llu",
                  static_cast<unsigned long long>(o.undelivered()),
                  static_cast<unsigned long long>(o.forged()),
                  static_cast<unsigned long long>(o.duplicated()),
                  static_cast<unsigned long long>(drops));
    r.notes.emplace_back(buf);
  }
}

void add_end_to_end(Result& r, const SliceClock& clock,
                    const std::vector<double>& lat, const Counts& prefix,
                    double mem_per_assoc, const std::vector<double>& setups,
                    const std::vector<double>& raw_setups) {
  r.info = {{"raw_ops_per_s", clock.ops_per_s(false, false)},
            {"raw_cpu_us_per_op", clock.cpu_us_per_op(false, false)},
            {"raw_setup_s", median(raw_setups)},
            {"host_speed", clock.host_speed()}};
  r.add("ops_per_s", clock.ops_per_s(false), "1/s");
  r.add("cpu_us_per_op", clock.cpu_us_per_op(false), "us");
  r.add("latency_p50_us", quantile(lat, 0.5), "us");
  r.add("latency_p99_us", quantile(lat, 0.99), "us");
  r.add("wire_bytes_per_op",
        prefix.ops ? static_cast<double>(prefix.wire_bytes) /
                         static_cast<double>(prefix.ops)
                   : 0.0,
        "B");
  r.add("mem_bytes_per_assoc", mem_per_assoc, "B");
  r.add("setup_s", median(setups), "s");
}

// ---------------------------------------------------------- stream shapes

struct StreamPlan {
  PathSpec path;
  std::size_t assocs = 0;
  double rate_per_assoc = 0;  // virtual messages/s, Poisson per association
  std::size_t slice_msgs = 0;
  std::size_t prefix_slices = 0;
  std::size_t max_msgs = 0;   // schedule length (below chain capacity)
  std::size_t setups = 3;
};

struct Arrival {
  std::uint64_t offset_us;  // from the start of the schedule
  std::uint32_t assoc;      // index, 0-based
};

Result run_stream(const RunConfig& rc, const StreamPlan& plan) {
  Result r;
  std::vector<double> setups, raw_setups;
  std::unique_ptr<SimPath> path;
  std::unique_ptr<Oracle> oracle;
  std::vector<Arrival> sched;
  std::vector<double> lat;
  SliceClock clock;
  std::uint64_t heap0 = 0;

  for (std::size_t s = 0; s < plan.setups; ++s) {
    path.reset();
    oracle.reset();
    sched = {};
    lat = {};
    SetupTimer timer;
    // Inputs: the merged Poisson arrival schedule and the oracle's pool.
    Rng rng(mix_seed(rc.seed, 1));
    sched.reserve(plan.max_msgs);
    std::vector<std::size_t> per_assoc(plan.assocs, 0);
    const double mean_gap_us =
        1e6 / (plan.rate_per_assoc * static_cast<double>(plan.assocs));
    double t = 0;
    for (std::size_t k = 0; k < plan.max_msgs; ++k) {
      t += rng.exp_gap(mean_gap_us);
      const auto a = static_cast<std::uint32_t>(rng.next() % plan.assocs);
      sched.push_back({static_cast<std::uint64_t>(t), a});
      ++per_assoc[a];
    }
    std::size_t cap = 0;
    for (const std::size_t c : per_assoc) cap = std::max(cap, c);
    oracle = std::make_unique<Oracle>(rc.seed, plan.assocs, cap);
    lat.reserve(plan.prefix_slices * plan.slice_msgs + 1024);
    clock = SliceClock{};
    clock.reserve(1 << 16);
    heap0 = heap_bytes();
    DeliverySink sink;
    sink.oracle = oracle.get();
    sink.latency_us = &lat;
    path = build_path(plan.path, rc.seed, sink);
    establish(*path, 1, plan.assocs);
    double raw = 0;
    setups.push_back(timer.stop(&raw));
    raw_setups.push_back(raw);
  }

  SimPath& p = *path;
  const std::uint64_t t_base = p.sim.now() + kMs;
  std::size_t next = 0;
  Ledger ledger;
  std::uint64_t run_ns = 0;

  // Submits up to n scheduled messages, each at its due virtual time.
  auto run_msgs = [&](std::size_t n, bool timed) {
    std::size_t done = 0;
    for (; done < n && next < sched.size(); ++done) {
      const Arrival& a = sched[next++];
      const std::uint64_t due = t_base + a.offset_us;
      const auto id = static_cast<std::uint32_t>(a.assoc + 1);
      alpha::crypto::Bytes payload = oracle->make(a.assoc, id, due);
      if (payload.empty()) break;
      if (!timed) {
        p.sim.run_until(due);
        p.initiator().submit(id, std::move(payload));
        continue;
      }
      const std::uint64_t t0 = wall_ns();
      p.sim.run_until(due);
      const std::uint64_t t1 = wall_ns();
      const std::uint64_t send0 = thread_send_ns();
      p.initiator().submit(id, std::move(payload));
      const std::uint64_t t2 = wall_ns();
      run_ns += t1 - t0;
      ledger.submit_ns += (t2 - t1) - (thread_send_ns() - send0);
    }
    return done;
  };

  run_msgs(plan.slice_msgs, false);  // warm-up slice
  Counts c0, c1;
  std::uint64_t heap1 = 0;
  const std::uint64_t start = wall_ns();
  const double budget_ns = rc.seconds * 1e9;
  for (std::size_t slice = 0;; ++slice) {
    if (slice == 0) {
      c0 = take_counts(p, oracle->delivered(), /*window_start=*/true);
      p.sink.record = true;
    }
    const bool traced =
        rc.trace && slice >= plan.prefix_slices &&
        static_cast<double>(wall_ns() - start) >= budget_ns / 2;
    set_tracing(traced);
    clock.begin(oracle->delivered());
    const std::size_t n = run_msgs(plan.slice_msgs, traced);
    clock.end(oracle->delivered(), traced);
    set_tracing(false);
    if (traced) ledger.msgs += n;
    if (slice + 1 == plan.prefix_slices) {
      heap1 = heap_bytes();
      c1 = take_counts(p, oracle->delivered(), /*window_start=*/false);
      p.sink.record = false;
    }
    if (n < plan.slice_msgs) {
      if (slice + 1 < plan.prefix_slices) {
        throw std::runtime_error("schedule shorter than the prefix");
      }
      r.notes.emplace_back("schedule exhausted before --seconds");
      break;
    }
    if (slice + 1 >= plan.prefix_slices &&
        static_cast<double>(wall_ns() - start) >= budget_ns) {
      break;
    }
  }
  drain(p, *oracle);
  report_outcome(r, *oracle, relay_drops(p), plan.path.loss > 0);

  const Counts prefix = c1 - c0;
  r.path_rtt_us = path_rtt_us(plan.path);
  r.latency_samples = lat.size();
  if (!rc.trace) {
    add_end_to_end(r, clock, lat, prefix,
                   (static_cast<double>(heap1) - static_cast<double>(heap0)) /
                       static_cast<double>(plan.assocs),
                   setups, raw_setups);
  } else {
    finish_ledger(ledger, p, run_ns);
    add_sim_layers(r, clock, ledger, prefix, p.capture, plan.path.config,
                   rc.seed);
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "slices=%zu prefix_ops=%llu latency_samples=%zu "
                "path_rtt_us=%.0f",
                clock.slices().size(),
                static_cast<unsigned long long>(prefix.ops), lat.size(),
                r.path_rtt_us);
  r.notes.emplace_back(buf);
  return r;
}

}  // namespace

Result run_mesh_relay(const RunConfig& rc) {
  StreamPlan plan;
  plan.path.relays = 7;
  plan.path.config.mode = alpha::wire::Mode::kCumulative;
  plan.path.config.batch_size = 16;
  plan.path.config.chain_length = 6144;
  plan.path.loss = rc.link_loss;
  plan.assocs = rc.tiny ? 8 : 64;
  plan.rate_per_assoc = 400;
  plan.slice_msgs = rc.tiny ? 256 : 4096;
  plan.prefix_slices = rc.tiny ? 4 : 8;
  // 3071 rounds x 16 per association; stay well inside it. At full size
  // that is 2.3M messages, about 30 s at the fastest speed seen here.
  plan.max_msgs = plan.assocs * (rc.tiny ? 2000 : 36000);
  plan.setups = rc.tiny ? 1 : 3;
  return run_stream(rc, plan);
}

Result run_direct_assocs(const RunConfig& rc) {
  StreamPlan plan;
  plan.path.relays = 0;
  plan.path.config.mode = alpha::wire::Mode::kCumulative;
  plan.path.config.batch_size = 4;
  plan.path.config.reliable = true;
  plan.path.loss = rc.link_loss;
  plan.assocs = rc.tiny ? 16 : 1024;
  plan.rate_per_assoc = 50;
  plan.slice_msgs = rc.tiny ? 256 : 4096;
  plan.prefix_slices = rc.tiny ? 4 : 8;
  // 511 rounds x 4 per association at the default chain length.
  plan.max_msgs = plan.assocs * (rc.tiny ? 400 : 1200);
  plan.setups = rc.tiny ? 1 : 3;
  return run_stream(rc, plan);
}

Result run_assoc_churn(const RunConfig& rc) {
  // Each cycle builds a fresh 2-link path with a resident population of
  // established (idle) associations, then opens new associations at a fixed
  // virtual rate; an op is one new association established with its first
  // message delivered. Cycles bound the heap: every association holds four
  // default-length chains, so a whole run on one path would grow to GBs.
  PathSpec spec;
  spec.relays = 1;
  spec.config.mode = alpha::wire::Mode::kBase;  // first message goes at once
  spec.jitter = 400;  // us; varies the handshake timing per seed
  spec.loss = rc.link_loss;
  const std::size_t resident = rc.tiny ? 16 : 128;
  const std::size_t per_cycle = rc.tiny ? 64 : 512;
  const std::size_t slice_ops = rc.tiny ? 16 : 64;
  const double opens_per_s = 200;  // virtual
  const std::size_t latency_cycles = 2;  // >= 1000 samples at full size

  Result r;
  SliceClock clock;
  clock.reserve(1 << 16);
  std::vector<double> setups, raw_setups, lat;
  lat.reserve(latency_cycles * per_cycle);
  Counts c0, c1;
  double mem_per_assoc = 0;
  Ledger ledger;
  std::uint64_t run_ns = 0, ops_before = 0;
  std::vector<alpha::crypto::Bytes> capture;
  const double budget_ns = rc.seconds * 1e9;
  std::uint64_t start = 0;
  bool lossy = spec.loss > 0;

  for (std::size_t cycle = 0;; ++cycle) {
    const std::uint64_t cycle_seed = mix_seed(rc.seed, 1000 + cycle);
    const bool traced = rc.trace && cycle >= latency_cycles && start != 0 &&
                        static_cast<double>(wall_ns() - start) >= budget_ns / 2;
    SetupTimer timer;
    Rng rng(mix_seed(cycle_seed, 1));
    std::vector<std::uint64_t> opens(per_cycle);
    double t = 0;
    for (auto& o : opens) {
      t += rng.exp_gap(1e6 / opens_per_s);
      o = static_cast<std::uint64_t>(t);
    }
    Oracle oracle(cycle_seed, per_cycle, 1);
    const auto first_new = static_cast<std::uint32_t>(resident + 1);
    oracle.set_first_id(first_new);
    const std::uint64_t heap0 = heap_bytes();
    DeliverySink sink;
    sink.oracle = &oracle;
    sink.latency_us = &lat;
    sink.record = cycle < latency_cycles;
    auto path = build_path(spec, cycle_seed, sink);
    SimPath& p = *path;
    establish(p, 1, resident);
    double raw = 0;
    setups.push_back(timer.stop(&raw));
    raw_setups.push_back(raw);
    if (start == 0) start = wall_ns();

    const std::uint64_t t_base = p.sim.now() + kMs;
    if (cycle == 0) c0 = take_counts(p, 0, /*window_start=*/true);
    std::size_t next = 0;
    while (next < per_cycle) {
      set_tracing(traced);
      clock.begin(ops_before + oracle.delivered());
      for (std::size_t k = 0; k < slice_ops && next < per_cycle; ++k, ++next) {
        const std::uint64_t due = t_base + opens[next];
        const auto id = static_cast<std::uint32_t>(first_new + next);
        const std::uint64_t ta = traced ? wall_ns() : 0;
        p.sim.run_until(due);
        const std::uint64_t tb = traced ? wall_ns() : 0;
        const std::uint64_t send0 = thread_send_ns();
        p.initiator().add_initiator(id, 1);
        p.initiator().start(id);
        p.initiator().submit(id, oracle.make(next, id, due));
        if (traced) {
          const std::uint64_t tc = wall_ns();
          run_ns += tb - ta;
          ledger.submit_ns += (tc - tb) - (thread_send_ns() - send0);
          ++ledger.msgs;
        }
      }
      clock.end(ops_before + oracle.delivered(), traced);
      set_tracing(false);
    }
    if (cycle == 0) {
      mem_per_assoc = (static_cast<double>(heap_bytes()) -
                       static_cast<double>(heap0)) /
                      static_cast<double>(resident + per_cycle);
      c1 = take_counts(p, oracle.delivered(), /*window_start=*/false);
    }
    drain(p, oracle);
    report_outcome(r, oracle, relay_drops(p), lossy);
    ops_before += oracle.delivered();
    if (traced) {
      finish_ledger(ledger, p, run_ns);
      run_ns = 0;
      if (capture.empty()) capture = std::move(p.capture);
    }
    // The tallies die with the path; finish_ledger folded them in already.
    path.reset();
    if (cycle + 1 >= latency_cycles &&
        static_cast<double>(wall_ns() - start) >= budget_ns &&
        (!rc.trace || ledger.msgs > 0)) {
      break;
    }
  }

  const Counts prefix = c1 - c0;
  r.path_rtt_us = path_rtt_us(spec);
  r.latency_samples = lat.size();
  if (!rc.trace) {
    add_end_to_end(r, clock, lat, prefix, mem_per_assoc, setups, raw_setups);
  } else {
    add_sim_layers(r, clock, ledger, prefix, capture, spec.config, rc.seed);
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "cycles=%zu slices=%zu prefix_ops=%llu latency_samples=%zu",
                setups.size(), clock.slices().size(),
                static_cast<unsigned long long>(prefix.ops), lat.size());
  r.notes.emplace_back(buf);
  return r;
}

}  // namespace perfbench
