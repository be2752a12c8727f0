// Closed-loop adaptivity under seeded chaos schedules (BENCH_adaptive.json).
//
// Three deterministic scenarios -- a Gilbert-Elliott phase shift, a cycle of
// hard partitions, and a Bernoulli loss ramp -- each run once per static
// ladder rung (the controller disabled, the association pinned to that
// (mode, batch) for its lifetime) and once with the AdaptiveController
// closing the loop. Every run is virtual-time over the deterministic
// simulator (inline sharded drive), so the committed artifact replays
// bit-identically on any machine.
//
// The score per row is goodput x efficiency:
//
//   score = (delivered / virtual_duration) * (delivered / frames_sent)
//
// i.e. a config is penalized both for losing messages (lean rungs under
// burst loss exhaust their retry budgets) and for spending wire frames
// (robust rungs burn 4+ frames per message on a clean channel). No static
// rung wins every schedule -- that is the point of adapting -- so the CI
// gate (scripts/check_perf_smoke.py --adaptive) enforces that the adaptive
// row beats every static rung on the score summed across scenarios, while
// also delivering every submitted message in every scenario.
//
//   $ bench_adaptive                   # full sweep
//   $ bench_adaptive --out FILE.json
//   $ bench_adaptive --flight-dir run  # + run.<scenario>/ recordings of
//                                      #   the adaptive runs
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/adapt.hpp"
#include "core/sharded_node.hpp"
#include "net/network.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"

using namespace alpha;
using namespace alpha::bench;

namespace {

using net::kMillisecond;
using net::kSecond;
using net::SimTime;

// ------------------------------------------------------------ the schedule

/// A fault profile taking effect at `at` (virtual time) on the one link.
struct FaultPhase {
  SimTime at = 0;
  net::FaultConfig faults;
};

struct Partition {
  SimTime at = 0;
  SimTime duration = 0;
};

struct Scenario {
  const char* name;
  std::uint64_t chaos_seed;  // 0: the run draws no randomness at all
  std::vector<FaultPhase> phases;
  std::vector<Partition> partitions;
};

net::FaultConfig ge(double p_enter, double p_exit, double loss_good,
                    double loss_bad) {
  net::FaultConfig f;
  net::BurstLossConfig burst;
  burst.p_enter_bad = p_enter;
  burst.p_exit_bad = p_exit;
  burst.loss_good = loss_good;
  burst.loss_bad = loss_bad;
  f.burst = burst;
  return f;
}

// Every scenario follows the same dramaturgy, with different dressing:
// calm (big batches earn their keep) -> tremor (moderate loss: the signal a
// controller can read) -> killer (a long outage that outlasts mid-ladder
// retry budgets, but not the fat budget of rung 0) -> calm again. A static
// rung has to pick one posture for the whole run: lean rungs lose whole
// in-flight rounds to the killer (budget 6 covers ~11 s of the capped
// exponential backoff; rung 0's budget covers ~61 s), robust rungs pay 4+
// frames per message through every calm stretch. The controller demotes on
// the tremor, rides out the killer at rung 0 with one message in flight,
// and snap-promotes back when the channel heals.
std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  // Bursty channel whose burst statistics shift mid-run: mild clustered
  // loss, a tremor of frequent lossy bursts (plus duplication and
  // reordering), then a 46 s blackout, then mild again.
  {
    Scenario s;
    s.name = "ge_phase_shift";
    s.chaos_seed = 0xa1fa'0001;
    net::FaultConfig mild = ge(0.01, 0.4, 0.0, 0.4);
    net::FaultConfig tremor = ge(0.15, 0.15, 0.03, 0.55);
    tremor.duplicate_rate = 0.02;
    tremor.reorder_rate = 0.05;
    s.phases.push_back({0, mild});
    s.phases.push_back({36 * kSecond, tremor});
    s.phases.push_back({49 * kSecond, mild});
    s.partitions = {{50'500 * kMillisecond, 46 * kSecond}};
    out.push_back(std::move(s));
  }

  // Clean channel, two outage cycles, no chaos randomness at all (the
  // schedule is pure simulator events): a short survivable partition as the
  // tremor, then a long killer partition while every rung's EWMA is still
  // hot from the first.
  {
    Scenario s;
    s.name = "partition_cycle";
    s.chaos_seed = 0;
    s.partitions = {{31'500 * kMillisecond, 3'500 * kMillisecond},
                    {41'500 * kMillisecond, 46 * kSecond},
                    {95'500 * kMillisecond, 8 * kSecond},
                    {106'500 * kMillisecond, 20 * kSecond}};
    out.push_back(std::move(s));
  }

  // Bernoulli loss ramp into an outage: clean, mild, then a climbing ramp
  // that crests in a 46 s partition before clearing. Expressed as a
  // degenerate Gilbert-Elliott channel that never leaves the good state.
  {
    Scenario s;
    s.name = "loss_ramp";
    s.chaos_seed = 0xa1fa'0002;
    s.phases.push_back({0, ge(0.0, 1.0, 0.0, 0.0)});
    s.phases.push_back({30 * kSecond, ge(0.0, 1.0, 0.06, 0.0)});
    s.phases.push_back({48 * kSecond, ge(0.0, 1.0, 0.22, 0.0)});
    s.phases.push_back({60 * kSecond, ge(0.0, 1.0, 0.30, 0.0)});
    s.phases.push_back({84 * kSecond, ge(0.0, 1.0, 0.02, 0.0)});
    s.partitions = {{67'500 * kMillisecond, 46 * kSecond}};
    out.push_back(std::move(s));
  }
  return out;
}

// ------------------------------------------------------------------ a run

constexpr SimTime kTrafficStart = 6 * kSecond;
constexpr SimTime kTrafficEnd = 126 * kSecond;
constexpr SimTime kBurstEvery = 4 * kSecond;
constexpr std::size_t kBurstSize = 16;
constexpr SimTime kDrainUntil = 210 * kSecond;

core::Config base_config() {
  core::Config config;
  // The deployment profile is an efficient big-batch rung: the adaptive row
  // starts where a throughput-minded operator would pin it, and has to earn
  // its robustness by demoting. Static rows override mode/batch per rung.
  config.mode = core::Mode::kCumulative;
  config.batch_size = 16;
  config.reliable = true;
  config.retransmit_on_nack = true;
  config.rto_us = 100 * kMillisecond;  // backoff reaches rto_max (5 s)
  config.max_retries = 6;
  config.chain_length = 4096;  // headroom for reconfig rekeys
  return config;
}

/// Controller tuning for the bench: faster windows than the library default
/// (the schedule's phases are tens of seconds, not minutes) and a backlog
/// flush threshold high enough that one queued burst at a lean rung never
/// reads as "outage backlog". Promotion keeps the default patience: eager
/// EWMA-based re-promotion walks straight back into the next outage of a
/// partition cycle, while the backlog-flush override already covers the
/// "disturbance over, queue deep" case without waiting out the EWMA.
core::AdaptiveController::Options controller_options() {
  core::AdaptiveController::Options opts;
  opts.interval_us = 300 * kMillisecond;
  opts.loss_alpha = 0.5;
  opts.promote_loss = 0.05;
  opts.severe_loss = 0.30;
  // Low enough that one 16-message burst landing on rung 0 after a short
  // outage counts as "queue deep" and snaps straight back up; the clean-link
  // and no-budget-pressure guards keep it from firing mid-disturbance.
  opts.flush_backlog_factor = 12;
  // Sparse 4 s bursts mean a single clean burst can satisfy window-counted
  // patience seconds after an outage ends; demand 12 s of clean *time*
  // before any optimistic promotion. Recovery from a drained outage still
  // happens instantly via the backlog-flush override.
  opts.promote_hold_us = 12 * kSecond;
  return opts;
}

/// Static rung `index` of the controller's own ladder, pinned for the whole
/// association -- exactly what the controller would run if it parked there.
core::Config pinned_config(std::size_t index) {
  std::size_t count = 0;
  const core::AdaptProfile* ladder = core::AdaptiveController::ladder(&count);
  const core::AdaptProfile& p = ladder[index % count];
  core::Config config = base_config();
  config.mode = p.mode;
  config.batch_size = p.batch;
  config.merkle_group = p.merkle_group;
  config.max_retries = base_config().max_retries + p.extra_retries;
  return config;
}

const char* mode_name(core::Mode mode) {
  switch (mode) {
    case core::Mode::kBase: return "base";
    case core::Mode::kCumulative: return "C";
    case core::Mode::kMerkle: return "M";
    case core::Mode::kCumulativeMerkle: return "C+M";
  }
  return "?";
}

struct Row {
  std::string config_label;
  bool adaptive = false;
  std::size_t submitted = 0;
  std::size_t delivered = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
  double goodput_msgs_per_s = 0;
  double frames_per_msg = 0;
  double score = 0;
  std::uint64_t adapt_evaluations = 0;
  std::uint64_t adapt_switches = 0;
  std::uint64_t reconfigs_applied = 0;
  std::string final_profile;
};

Row run_one(const Scenario& scenario, const core::Config& config,
            bool adaptive) {
  net::Simulator sim;
  net::Network network(sim, /*seed=*/1337);
  if (scenario.chaos_seed != 0) network.set_chaos_seed(scenario.chaos_seed);
  network.add_node(0);
  network.add_node(1);
  net::LinkConfig link;
  link.latency = 2 * kMillisecond;
  network.add_link(0, 1, link);
  for (const auto& p : scenario.partitions) {
    network.schedule_partition(0, 1, p.at, p.duration);
  }

  constexpr std::uint32_t kAssoc = 1;
  std::size_t delivered = 0;

  core::ShardedNode::Options a_opts;
  a_opts.shard.config = config;
  a_opts.shard.seed = 7;
  if (adaptive) a_opts.shard.adaptive = controller_options();
  a_opts.workers = 1;
  core::ShardedNode a{std::make_unique<net::SimTransport>(network, 0),
                      a_opts, {}};

  core::ShardedNode::Options b_opts;
  b_opts.shard.config = config;
  b_opts.shard.seed = 8;
  b_opts.shard.accept_inbound = true;
  b_opts.workers = 1;
  core::ShardedNode::Callbacks b_cbs;
  b_cbs.on_message = [&delivered](std::uint32_t, crypto::ByteView) {
    ++delivered;
  };
  core::ShardedNode b{std::make_unique<net::SimTransport>(network, 1),
                      b_opts, b_cbs};

  a.add_initiator(kAssoc, /*peer=*/1);
  a.start(kAssoc);
  sim.run_until(3 * kSecond);

  Row row;
  row.adaptive = adaptive;
  if (a.established_count() != 1) return row;  // scored zero

  // Drive the schedule at one-second granularity so fault-phase boundaries
  // land where the scenario says, not quantized to burst times; bursts go
  // out every kBurstEvery within the same pass.
  std::size_t next_phase = 0;
  std::uint8_t fill = 0;
  SimTime next_burst = kTrafficStart;
  for (SimTime t = kTrafficStart; t <= kTrafficEnd; t += kSecond) {
    while (next_phase < scenario.phases.size() &&
           scenario.phases[next_phase].at <= t) {
      network.set_link_faults(0, 1, scenario.phases[next_phase].faults);
      ++next_phase;
    }
    if (t >= next_burst) {
      for (std::size_t i = 0; i < kBurstSize; ++i) {
        a.submit(kAssoc, crypto::Bytes(48, fill));
        ++fill;
        ++row.submitted;
      }
      next_burst += kBurstEvery;
    }
    sim.run_until(t);
  }
  // Calm channel for the drain so every straggler retransmission lands.
  network.set_link_faults(0, 1, net::FaultConfig{});
  sim.run_until(kDrainUntil);

  row.delivered = delivered;
  const core::NodeSnapshot snap = a.snapshot(/*per_assoc=*/true);
  row.adapt_evaluations = snap.adapt_evaluations;
  row.adapt_switches = snap.adapt_switches;
  row.reconfigs_applied = snap.reconfigs_applied;
  for (const auto& as : snap.assocs) {
    if (as.assoc_id != kAssoc) continue;
    row.final_profile = std::string(mode_name(as.mode)) + "/" +
                        std::to_string(as.batch);
  }

  const net::LinkStats wire = network.total_stats();
  row.frames_sent = wire.frames_sent;
  row.frames_lost = wire.frames_lost + wire.frames_link_down;
  const double duration_s =
      static_cast<double>(kTrafficEnd - kTrafficStart) / kSecond;
  row.goodput_msgs_per_s = static_cast<double>(row.delivered) / duration_s;
  row.frames_per_msg =
      row.delivered > 0
          ? static_cast<double>(row.frames_sent) / row.delivered
          : 0.0;
  const double efficiency =
      row.frames_sent > 0
          ? static_cast<double>(row.delivered) / row.frames_sent
          : 0.0;
  row.score = row.goodput_msgs_per_s * efficiency;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_adaptive.json";
  std::string flight_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-dir") == 0 && i + 1 < argc) {
      flight_prefix = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE.json] [--flight-dir PREFIX]\n",
                   argv[0]);
      return 2;
    }
  }

  header("Adaptive controller vs. static (mode, batch) rungs under seeded "
         "chaos schedules");

  std::size_t ladder_count = 0;
  core::AdaptiveController::ladder(&ladder_count);

  JsonWriter json;
  json.begin_object()
      .field("bench", "adaptive")
      .field("schema_version", 1);

  struct Aggregate {
    std::string label;
    bool adaptive = false;
    double total_score = 0;
    std::size_t total_delivered = 0;
    std::size_t total_submitted = 0;
    std::uint64_t adapt_switches = 0;
    std::uint64_t reconfigs_applied = 0;
    bool delivered_everything = true;
  };
  std::vector<Aggregate> totals(ladder_count + 1);

  json.key("scenarios").begin_array();
  for (const Scenario& scenario : scenarios()) {
    std::printf("\n-- %s --\n", scenario.name);
    std::printf("%10s %9s %9s %8s %8s %12s %8s %10s\n", "config", "submit",
                "deliver", "frames", "f/msg", "goodput/s", "score",
                "switches");
    json.begin_object()
        .field("name", scenario.name)
        .field("chaos_seed", scenario.chaos_seed)
        .field("duration_s",
               static_cast<std::uint64_t>((kTrafficEnd - kTrafficStart) /
                                          kSecond));
    json.key("rows").begin_array();

    for (std::size_t i = 0; i <= ladder_count; ++i) {
      const bool adaptive = i == ladder_count;
      const core::Config config =
          adaptive ? base_config() : pinned_config(i);
      // The adaptive run is optionally recorded per scenario into
      // PREFIX.<scenario>/ (explained offline via alpha_inspect --adapt).
      // It logs a few thousand events, far below the ring and segment
      // capacity, so one finalize() after the run captures them all.
      std::optional<trace::Ring> ring;
      std::optional<trace::FlightRecorder> flight;
      if (adaptive && !flight_prefix.empty()) {
        ring.emplace(std::size_t{1} << 18);
        trace::FlightOptions fopts;
        fopts.dir = flight_prefix + "." + scenario.name;
        flight.emplace(fopts, &*ring);
        if (!flight->ok()) {
          std::fprintf(stderr, "%s\n", flight->error().c_str());
          return 1;
        }
        trace::install(&*ring);
      }
      Row row = run_one(scenario, config, adaptive);
      if (flight.has_value()) {
        flight->finalize();
        trace::install(nullptr);
      }
      row.config_label =
          adaptive ? "adaptive"
                   : std::string(mode_name(config.mode)) + "/" +
                         std::to_string(config.effective_batch());

      Aggregate& agg = totals[i];
      agg.label = row.config_label;
      agg.adaptive = adaptive;
      agg.total_score += row.score;
      agg.total_delivered += row.delivered;
      agg.total_submitted += row.submitted;
      agg.adapt_switches += row.adapt_switches;
      agg.reconfigs_applied += row.reconfigs_applied;
      agg.delivered_everything =
          agg.delivered_everything && row.delivered == row.submitted;

      std::printf("%10s %9zu %9zu %8llu %8.2f %12.2f %8.3f %10llu\n",
                  row.config_label.c_str(), row.submitted, row.delivered,
                  static_cast<unsigned long long>(row.frames_sent),
                  row.frames_per_msg, row.goodput_msgs_per_s, row.score,
                  static_cast<unsigned long long>(row.adapt_switches));
      json.begin_object()
          .field("config", row.config_label)
          .field("adaptive", row.adaptive)
          .field("submitted", static_cast<std::uint64_t>(row.submitted))
          .field("delivered", static_cast<std::uint64_t>(row.delivered))
          .field("frames_sent", row.frames_sent)
          .field("frames_lost", row.frames_lost)
          .field("goodput_msgs_per_s", row.goodput_msgs_per_s)
          .field("frames_per_msg", row.frames_per_msg)
          .field("score", row.score)
          .field("adapt_evaluations", row.adapt_evaluations)
          .field("adapt_switches", row.adapt_switches)
          .field("reconfigs_applied", row.reconfigs_applied)
          .field("final_profile", row.final_profile)
          .end_object();
    }
    json.end_array().end_object();
  }
  json.end_array();

  std::printf("\n-- aggregate (score summed across scenarios) --\n");
  std::printf("%10s %12s %10s %10s %10s\n", "config", "total_score",
              "delivered", "submitted", "switches");
  bool adaptive_wins = true;
  const Aggregate& adap = totals.back();
  json.key("aggregate").begin_array();
  for (const Aggregate& agg : totals) {
    if (!agg.adaptive && adap.total_score <= agg.total_score) {
      adaptive_wins = false;
    }
    std::printf("%10s %12.3f %10zu %10zu %10llu\n", agg.label.c_str(),
                agg.total_score, agg.total_delivered, agg.total_submitted,
                static_cast<unsigned long long>(agg.adapt_switches));
    json.begin_object()
        .field("config", agg.label)
        .field("adaptive", agg.adaptive)
        .field("total_score", agg.total_score)
        .field("total_delivered",
               static_cast<std::uint64_t>(agg.total_delivered))
        .field("total_submitted",
               static_cast<std::uint64_t>(agg.total_submitted))
        .field("delivered_everything", agg.delivered_everything)
        .field("adapt_switches", agg.adapt_switches)
        .field("reconfigs_applied", agg.reconfigs_applied)
        .end_object();
  }
  json.end_array().end_object();

  if (!json.write_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  std::printf(
      "Reading: each scenario pins one seeded fault schedule; static rungs\n"
      "trade delivery (lean rungs lose rounds in bursts/partitions) against\n"
      "wire overhead (robust rungs burn frames on clean phases). The\n"
      "adaptive row rides the ladder at rekey boundaries and must beat all\n"
      "statics on the aggregate score while delivering every message.\n");

  const bool ok = adaptive_wins && adap.delivered_everything &&
                  adap.adapt_switches > 0 && adap.reconfigs_applied > 0;
  if (!ok) {
    std::fprintf(stderr, "adaptive gate FAILED (wins=%d all_delivered=%d "
                         "switches=%llu reconfigs=%llu)\n",
                 adaptive_wins, adap.delivered_everything,
                 static_cast<unsigned long long>(adap.adapt_switches),
                 static_cast<unsigned long long>(adap.reconfigs_applied));
  }
  return ok ? 0 : 1;
}
