// alpha_sim -- configurable ALPHA experiment runner.
//
// Sets up a linear multi-hop path of AlphaNode runtimes in the
// deterministic simulator, streams messages through the chosen protocol
// profile -- optionally over many concurrent associations between the same
// end nodes -- and prints a result table: delivery/ack counts, goodput,
// per-role hash work, relay drops, retransmits, runtime demux counters.
//
//   $ alpha_sim --hops 4 --mode cm --batch 32 --group 8 --messages 500
//               --loss 0.1 --reliable --assocs 16
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>

#include "core/node.hpp"
#include "core/sharded_node.hpp"
#include "flags.hpp"
#include "net/network.hpp"
#include "trace/build_info.hpp"
#include "trace/flight.hpp"
#include "trace/health.hpp"
#include "trace/metrics.hpp"
#include "trace/prof.hpp"
#include "trace/spans.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

using namespace alpha;

namespace {

wire::Mode parse_mode(const std::string& s) {
  if (s == "base") return wire::Mode::kBase;
  if (s == "c") return wire::Mode::kCumulative;
  if (s == "m") return wire::Mode::kMerkle;
  if (s == "cm") return wire::Mode::kCumulativeMerkle;
  std::fprintf(stderr, "unknown mode '%s' (base|c|m|cm)\n", s.c_str());
  std::exit(2);
}

std::size_t platform_path_depth(const core::Config& c) {
  std::size_t leaves = c.mode == wire::Mode::kCumulativeMerkle
                           ? c.merkle_group
                           : c.batch_size;
  std::size_t depth = 0;
  while ((1u << depth) < leaves) ++depth;
  return depth;
}

crypto::HashAlgo parse_algo(const std::string& s) {
  if (s == "sha1") return crypto::HashAlgo::kSha1;
  if (s == "sha256") return crypto::HashAlgo::kSha256;
  if (s == "mmo") return crypto::HashAlgo::kMmo128;
  std::fprintf(stderr, "unknown algo '%s' (sha1|sha256|mmo)\n", s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags{"alpha_sim", "ALPHA protocol experiment runner"};
  flags.define("hops", "3", "number of links on the path");
  flags.define("assocs", "1", "concurrent associations between the end nodes");
  flags.define("mode", "c", "protocol mode: base|c|m|cm");
  flags.define("algo", "sha1", "hash function: sha1|sha256|mmo");
  flags.define("batch", "16", "messages pre-signed per S1");
  flags.define("group", "8", "messages per Merkle root (cm mode)");
  flags.define("messages", "200", "messages to stream per association");
  flags.define("msg-size", "800", "payload bytes per message");
  flags.define("reliable", "false", "use pre-(n)acks / AMT acknowledgments");
  flags.define("loss", "0.0", "per-link frame loss rate");
  flags.define("jitter", "2", "per-link jitter (ms)");
  flags.define("latency", "5", "per-link latency (ms)");
  flags.define("bandwidth", "54000000", "link bandwidth (bit/s)");
  flags.define("mtu", "1500", "link MTU (bytes)");
  flags.define("chain", "4096", "hash-chain length");
  flags.define("max-retries", "50", "retransmit budget per round/handshake");
  flags.define("rekey", "64", "rekey threshold in chain elements (0 = off)");
  flags.define("adaptive", "false",
               "close the adaptivity loop: initiator associations run the "
               "live-telemetry mode/batch controller (--mode/--batch become "
               "the starting profile; switches land at rekey boundaries)");
  flags.define("seed", "1", "simulation seed");
  flags.define("workers", "1",
               "shard workers for the end nodes (sharded runtime; the "
               "simulator drives shards inline, so runs stay deterministic)");
  flags.define("relay-workers", "1",
               "shard workers for interior relay nodes (>1 runs relays on "
               "the sharded runtime, bindings demuxed by assoc-id hash)");
  flags.define("corrupt", "0.0", "per-link frame bit-corruption rate");
  flags.define("dup", "0.0", "per-link frame duplication rate");
  flags.define("reorder", "0.0", "per-link frame reordering rate");
  flags.define("reorder-window", "50", "max extra reorder delay (ms)");
  flags.define("burst-loss", "0.0",
               "Gilbert-Elliott bad-state loss rate (0 = off)");
  flags.define("burst-enter", "0.05", "Gilbert-Elliott good->bad rate");
  flags.define("burst-exit", "0.25", "Gilbert-Elliott bad->good rate");
  flags.define("partition", "",
               "cut the middle link: start,duration (seconds)");
  flags.define("chaos-seed", "0",
               "fault-schedule seed (0 = derive from --seed)");
  flags.define("flight-dir", "",
               "spill the event ring to crash-safe flight-recorder segments "
               "under DIR (alpha_inspect --trace/--spans/--adapt/--flight "
               "render them)");
  flags.define("metrics", "false",
               "print Prometheus-style per-association metrics to stdout");
  flags.define("metrics-port", "-1",
               "serve /metrics + /healthz on 127.0.0.1:PORT (0 = ephemeral, "
               "port printed to stderr; -1 = off)");
  flags.define("serve-seconds", "0",
               "keep the telemetry endpoint up for N wall-clock seconds "
               "after the run (for scrapers)");
  flags.define("identity", "",
               "private key file (alpha_keygen) signing the handshake");
  flags.define("require-protected", "false",
               "responder rejects unsigned handshakes");
  flags.parse(argc, argv);

  const std::size_t hops = static_cast<std::size_t>(flags.num("hops"));
  const std::size_t assocs = static_cast<std::size_t>(flags.num("assocs"));
  const std::size_t messages = static_cast<std::size_t>(flags.num("messages"));
  const std::size_t msg_size = static_cast<std::size_t>(flags.num("msg-size"));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.num("seed"));
  const auto workers = static_cast<std::uint32_t>(flags.num("workers"));
  const auto relay_workers =
      static_cast<std::uint32_t>(flags.num("relay-workers"));
  if (hops < 1 || assocs < 1 || workers < 1 || relay_workers < 1) {
    std::fprintf(stderr,
                 "need --hops >= 1, --assocs >= 1, --workers >= 1 and "
                 "--relay-workers >= 1\n");
    return 2;
  }

  net::Simulator sim;
  net::Network network{sim, seed};
  for (net::NodeId id = 0; id <= hops; ++id) network.add_node(id);
  net::LinkConfig link;
  link.latency = static_cast<net::SimTime>(flags.num("latency")) * net::kMillisecond;
  link.jitter = static_cast<net::SimTime>(flags.num("jitter")) * net::kMillisecond;
  link.loss_rate = flags.real("loss");
  link.bandwidth_bps = static_cast<std::uint64_t>(flags.num("bandwidth"));
  link.mtu = static_cast<std::size_t>(flags.num("mtu"));
  for (net::NodeId id = 0; id < hops; ++id) network.add_link(id, id + 1, link);

  // Adversarial fault schedule, replayable via --chaos-seed.
  if (const auto chaos_seed = static_cast<std::uint64_t>(
          flags.num("chaos-seed"));
      chaos_seed != 0) {
    network.set_chaos_seed(chaos_seed);
  }
  net::FaultConfig faults;
  faults.corrupt_rate = flags.real("corrupt");
  faults.duplicate_rate = flags.real("dup");
  faults.reorder_rate = flags.real("reorder");
  faults.reorder_window =
      static_cast<net::SimTime>(flags.num("reorder-window")) *
      net::kMillisecond;
  if (flags.real("burst-loss") > 0.0) {
    net::BurstLossConfig burst;
    burst.p_enter_bad = flags.real("burst-enter");
    burst.p_exit_bad = flags.real("burst-exit");
    burst.loss_bad = flags.real("burst-loss");
    faults.burst = burst;
  }
  if (faults.any()) {
    for (net::NodeId id = 0; id < hops; ++id) {
      network.set_link_faults(id, id + 1, faults);
    }
  }
  if (const std::string partition = flags.str("partition");
      !partition.empty()) {
    double start_s = 0.0, duration_s = 0.0;
    if (std::sscanf(partition.c_str(), "%lf,%lf", &start_s, &duration_s) != 2 ||
        start_s < 0.0 || duration_s <= 0.0) {
      std::fprintf(stderr, "bad --partition '%s' (want start,duration in "
                   "seconds)\n", partition.c_str());
      return 2;
    }
    const net::NodeId cut = static_cast<net::NodeId>(hops / 2);
    network.schedule_partition(
        cut, cut + 1,
        static_cast<net::SimTime>(start_s * net::kSecond),
        static_cast<net::SimTime>(duration_s * net::kSecond));
  }

  // Typed event trace: span stitching, the live telemetry endpoint and the
  // flight recorder all read one ring, installed whenever any of them is on.
  std::optional<trace::Ring> trace_ring;
  const std::string flight_dir = flags.str("flight-dir");
  const long metrics_port = flags.num("metrics-port");
  const long serve_seconds = flags.num("serve-seconds");
  // A flight recording embeds the metrics snapshot at finalize, so
  // --flight-dir implies the metrics plumbing.
  const bool want_metrics =
      flags.flag("metrics") || metrics_port >= 0 || !flight_dir.empty();
  if (want_metrics) {
    trace_ring.emplace(std::size_t{1} << 18);
    trace::install(&*trace_ring);
  }

  core::Config config;
  config.mode = parse_mode(flags.str("mode"));
  config.algo = parse_algo(flags.str("algo"));
  config.batch_size = static_cast<std::size_t>(flags.num("batch"));
  config.merkle_group = static_cast<std::size_t>(flags.num("group"));
  config.mtu_hint = link.mtu;  // keep S1/A1 control packets deliverable
  // S2 overhead: header(10)+mode(1)+index(4)+digest(1+h)+msgidx(2)+flags(1)
  // +len(2) plus a Merkle path in tree modes.
  const std::size_t s2_overhead =
      21 + crypto::digest_size(config.algo) +
      (config.uses_trees()
           ? 3 + platform_path_depth(config) *
                     (1 + crypto::digest_size(config.algo))
           : 0);
  if (msg_size + s2_overhead > link.mtu) {
    std::fprintf(stderr,
                 "warning: msg-size %zu + ALPHA overhead ~%zu exceeds the "
                 "MTU (%zu); data packets will be dropped\n",
                 msg_size, s2_overhead, link.mtu);
  }
  config.reliable = flags.flag("reliable");
  config.retransmit_on_nack = config.reliable;
  config.chain_length = static_cast<std::size_t>(flags.num("chain"));
  config.rekey_threshold = static_cast<std::size_t>(flags.num("rekey"));
  config.rto_us = 200 * net::kMillisecond;
  config.max_retries = static_cast<int>(flags.num("max-retries"));

  std::optional<core::Identity> identity;
  core::Host::Options initiator_opts, responder_opts;
  if (!flags.str("identity").empty()) {
    std::ifstream f{flags.str("identity")};
    std::string hex;
    if (!f || !(f >> hex)) {
      std::fprintf(stderr, "cannot read %s\n", flags.str("identity").c_str());
      return 1;
    }
    identity = core::Identity::deserialize_private(crypto::from_hex(hex));
    if (!identity.has_value()) {
      std::fprintf(stderr, "malformed identity key file\n");
      return 1;
    }
    initiator_opts.identity = &*identity;
  }
  responder_opts.require_protected_peer = flags.flag("require-protected");

  // One AlphaNode per path node. Node 0 runs every initiator association;
  // node `hops` accepts the inbound handshakes on demand; interior nodes
  // carry a single relay binding each and demux frames by association id.
  // The end nodes run the sharded runtime (--workers N). Over SimTransport
  // the shards are driven inline -- one thread, virtual-arrival order -- so
  // sharded runs replay bit-identically per seed. Interior relay nodes stay
  // on AlphaNode (relay state is not partitioned by association).
  std::size_t delivered = 0;
  std::size_t acked = 0;
  core::ShardedNode::Options init_opts;
  init_opts.shard.config = config;
  init_opts.shard.seed = seed + 77;
  init_opts.shard.trace_origin = 0;
  init_opts.workers = workers;
  if (flags.flag("adaptive")) {
    init_opts.shard.adaptive = core::AdaptiveController::Options{};
  }
  std::size_t failed_deliveries = 0;

  metrics::Registry registry;
  trace::SpanBuilder span_builder{want_metrics ? &registry : nullptr};
  trace::HealthMonitor health;
  // Stage profiler: the sharded runtimes are driven inline over
  // SimTransport (one thread), so the thread-local install covers every
  // shard-drain / relay-verify / chain-step site in the run.
  trace::StageProfiler profiler;
  if (want_metrics) {
    trace::export_build_info(registry);
    trace::install_profiler(&profiler);
  }
  std::map<std::uint64_t, std::uint64_t> submit_time_us;  // cookie -> t
  std::map<std::uint32_t, std::uint64_t> hs_start_us;     // assoc -> t
  const auto assoc_label = [](std::uint32_t assoc_id) {
    return "assoc=\"" + std::to_string(assoc_id) + "\"";
  };

  core::ShardedNode::Callbacks init_cbs;
  init_cbs.on_delivery = [&](std::uint32_t assoc_id, std::uint64_t cookie,
                             core::DeliveryStatus status) {
    if (status == core::DeliveryStatus::kAcked) ++acked;
    // Budget exhaustion under an adversarial schedule: the signer reports
    // the round failed instead of retransmitting forever.
    if (status == core::DeliveryStatus::kFailed) ++failed_deliveries;
    if (want_metrics) {
      if (const auto it = submit_time_us.find(cookie);
          it != submit_time_us.end()) {
        if (status == core::DeliveryStatus::kAcked) {
          registry
              .histogram("alpha_round_latency_us", assoc_label(assoc_id))
              .record(sim.now() - it->second);
        }
        submit_time_us.erase(it);
      }
    }
  };
  init_cbs.on_established = [&](std::uint32_t assoc_id) {
    if (!want_metrics) return;
    if (const auto it = hs_start_us.find(assoc_id); it != hs_start_us.end()) {
      registry.histogram("alpha_handshake_rtt_us", assoc_label(assoc_id))
          .record(sim.now() - it->second);
      hs_start_us.erase(it);
    }
  };
  core::ShardedNode initiator_node{
      std::make_unique<net::SimTransport>(network, 0), init_opts, init_cbs};

  // Interior relay nodes: an AlphaNode relay by default, or -- with
  // --relay-workers above 1 -- the sharded runtime with relay bindings
  // demuxed across workers by assoc-id hash. Association ids are known up
  // front (1..assocs), which sharded relay bindings require.
  const bool sharded_relays = relay_workers > 1;
  std::vector<std::unique_ptr<core::AlphaNode>> relay_nodes;
  std::vector<std::unique_ptr<core::ShardedNode>> sharded_relay_nodes;
  std::vector<std::uint32_t> relay_assoc_ids;
  for (std::size_t a = 0; a < assocs; ++a) {
    relay_assoc_ids.push_back(static_cast<std::uint32_t>(a + 1));
  }
  core::AlphaNode::Options relay_node_opts;
  relay_node_opts.config = config;
  for (net::NodeId id = 1; id < hops; ++id) {
    if (sharded_relays) {
      core::ShardedNode::Options ropts;
      ropts.shard.config = config;
      ropts.shard.seed = seed + 100 + id;
      ropts.shard.trace_origin = static_cast<std::uint8_t>(id);
      ropts.workers = relay_workers;
      auto node = std::make_unique<core::ShardedNode>(
          std::make_unique<net::SimTransport>(network, id), ropts);
      node->add_relay(/*upstream=*/id - 1, /*downstream=*/id + 1,
                      relay_assoc_ids);
      sharded_relay_nodes.push_back(std::move(node));
    } else {
      relay_node_opts.trace_origin = static_cast<std::uint8_t>(id);
      auto node = std::make_unique<core::AlphaNode>(
          std::make_unique<net::SimTransport>(network, id), relay_node_opts);
      node->add_relay(/*upstream=*/id - 1, /*downstream=*/id + 1);
      relay_nodes.push_back(std::move(node));
    }
  }

  core::ShardedNode::Options resp_opts;
  resp_opts.shard.config = config;
  resp_opts.shard.seed = seed + 78;
  resp_opts.shard.accept_inbound = true;
  resp_opts.shard.trace_origin = static_cast<std::uint8_t>(hops);
  resp_opts.shard.accept_host_options = responder_opts;
  resp_opts.workers = workers;
  // Forgery oracle: every genuine payload is msg_size bytes of one repeated
  // value, so anything else that reaches the application is a forgery the
  // protocol failed to reject (e.g. a corrupted frame that still verified).
  std::size_t forged = 0;
  core::ShardedNode::Callbacks resp_cbs;
  resp_cbs.on_message = [&](std::uint32_t, crypto::ByteView payload) {
    bool genuine = payload.size() == msg_size && !payload.empty();
    for (std::size_t i = 1; genuine && i < payload.size(); ++i) {
      genuine = payload[i] == payload[0];
    }
    if (genuine) {
      ++delivered;
    } else {
      ++forged;
    }
  };
  core::ShardedNode responder_node{
      std::make_unique<net::SimTransport>(network,
                                          static_cast<net::NodeId>(hops)),
      resp_opts, resp_cbs};

  // One refresh = fold per-association counters from fresh snapshots into
  // the registry (plain assignments, so re-folding per scrape is
  // idempotent), stitch newly-recorded ring events into spans, and feed the
  // health monitor. Called on every scrape and once before printing.
  const auto refresh_observability = [&] {
    if (!want_metrics) return;
    const auto init = initiator_node.snapshot(/*per_assoc=*/true);
    const auto resp = responder_node.snapshot(/*per_assoc=*/true);
    std::vector<trace::AssocHealthSample> samples;
    samples.reserve(init.assocs.size());
    for (const auto& as : init.assocs) {
      const std::string labels = assoc_label(as.assoc_id);
      registry.counter("alpha_messages_submitted", labels) =
          as.signer.messages_submitted;
      registry.counter("alpha_rounds_completed", labels) =
          as.signer.rounds_completed;
      registry.counter("alpha_rounds_failed", labels) =
          as.signer.rounds_failed;
      registry.counter("alpha_rekeys_started", labels) = as.rekeys_started;
      registry.counter("alpha_hs_retransmits", labels) = as.hs_retransmits;
      registry.counter("alpha_corrupt_frames", labels) = as.corrupt_frames;
      registry.counter("alpha_replayed_handshakes", labels) =
          as.replayed_handshakes;
      registry.counter("alpha_duplicate_handshakes", labels) =
          as.duplicate_handshakes;
      registry.counter("alpha_assoc_failed", labels) = as.failed ? 1 : 0;
      // Adaptivity loop (zero without --adaptive): policy activity, the
      // applied profile, and the controller's live loss estimate.
      registry.counter("alpha_adapt_evaluations", labels) =
          as.adapt_evaluations;
      registry.counter("alpha_adapt_switches", labels) = as.adapt_switches;
      registry.counter("alpha_adapt_reconfigs_applied", labels) =
          as.reconfigs_applied;
      registry.counter("alpha_adapt_profile", labels) = as.adapt_profile;
      registry.counter("alpha_adapt_batch", labels) = as.batch;
      registry.counter("alpha_adapt_loss_permille", labels) =
          static_cast<std::uint64_t>(as.adapt_loss_ewma * 1000.0);
      trace::AssocHealthSample sample;
      sample.assoc_id = as.assoc_id;
      sample.established = as.established;
      sample.failed = as.failed;
      sample.round_active = as.round_active;
      sample.round_seq = as.round_seq;
      sample.round_retries = as.round_retries;
      sample.rekeys_started = as.rekeys_started;
      samples.push_back(sample);
    }
    for (const auto& as : resp.assocs) {
      const std::string labels = assoc_label(as.assoc_id);
      registry.counter("alpha_messages_delivered", labels) =
          as.verifier.messages_delivered;
      registry.counter("alpha_invalid_packets", labels) =
          as.verifier.invalid_packets;
      registry.counter("alpha_duplicate_packets", labels) =
          as.verifier.duplicate_packets;
    }
    // Sharded-runtime queue instrumentation: live per-shard depths and
    // overflow counters for both end nodes (assignment per scrape, so the
    // export tracks the rings rather than accumulating).
    const auto fold_shards = [&](const char* node,
                                 const std::vector<core::ShardedNode::ShardStats>&
                                     stats) {
      for (const auto& ss : stats) {
        const std::string labels = "node=\"" + std::string(node) +
                                   "\",shard=\"" + std::to_string(ss.shard) +
                                   "\"";
        registry.counter("alpha_shard_in_depth", labels) = ss.in_depth;
        registry.counter("alpha_shard_out_depth", labels) = ss.out_depth;
        registry.counter("alpha_shard_in_overflows", labels) =
            ss.in_overflows;
        registry.counter("alpha_shard_out_overflows", labels) =
            ss.out_overflows;
        registry.counter("alpha_shard_frames_routed", labels) =
            ss.frames_routed;
      }
    };
    fold_shards("initiator", initiator_node.shard_stats());
    fold_shards("responder", responder_node.shard_stats());
    // Relay attribution: forwarded/extracted totals plus every drop broken
    // out by taxonomy reason, per relay node (assignment per scrape, so
    // re-folding is idempotent). Sharded relays also export their per-shard
    // queue depths through fold_shards above.
    const auto fold_relay = [&](std::size_t idx, const core::RelayStats& rs) {
      const std::string labels = "relay=\"" + std::to_string(idx) + "\"";
      registry.counter("alpha_relay_forwarded", labels) = rs.forwarded;
      registry.counter("alpha_relay_extracted", labels) =
          rs.messages_extracted;
      registry.counter("alpha_relay_acks_verified", labels) =
          rs.acks_verified;
      for (std::size_t r = 1; r < trace::kDropReasonCount; ++r) {
        const std::uint64_t count = rs.dropped_by_reason[r];
        if (count == 0) continue;
        registry.counter(
            "alpha_relay_dropped",
            labels + ",reason=\"" +
                trace::to_string(static_cast<trace::DropReason>(r)) + "\"") =
            count;
      }
    };
    for (std::size_t i = 0; i < relay_nodes.size(); ++i) {
      fold_relay(i, relay_nodes[i]->snapshot().relay);
    }
    for (std::size_t i = 0; i < sharded_relay_nodes.size(); ++i) {
      fold_relay(i, sharded_relay_nodes[i]->snapshot().relay);
      fold_shards(("relay" + std::to_string(i)).c_str(),
                  sharded_relay_nodes[i]->shard_stats());
    }
    trace::export_prof(profiler, registry);
    if (trace_ring.has_value()) span_builder.ingest_new(*trace_ring);
    health.observe(samples, sim.now(),
                   trace_ring.has_value() ? trace_ring->dropped() : 0);
  };

  std::optional<trace::TelemetryServer> telemetry;
  if (metrics_port >= 0) {
    trace::TelemetryServer::Options topts;
    topts.port = static_cast<std::uint16_t>(metrics_port);
    telemetry.emplace(
        topts,
        [&] {
          refresh_observability();
          return registry.render_prometheus();
        },
        [&] {
          refresh_observability();
          return std::pair<int, std::string>{health.http_status(),
                                             health.healthz_json()};
        });
    if (!telemetry->ok()) {
      std::fprintf(stderr, "telemetry: cannot bind 127.0.0.1:%ld\n",
                   metrics_port);
      return 1;
    }
    // Scrapers parse this line to find an ephemeral port (--metrics-port 0).
    std::fprintf(stderr, "telemetry: serving on 127.0.0.1:%u\n",
                 telemetry->port());
    std::fflush(stderr);
  }

  // Flight recorder: crash-safe spill of the same event ring. Installed
  // with the fatal-signal handlers so even a SIGSEGV mid-run leaves a
  // replayable recording behind (alpha_inspect --flight DIR).
  std::optional<trace::FlightRecorder> flight;
  if (!flight_dir.empty()) {
    trace::FlightOptions fopts;
    fopts.dir = flight_dir;
    fopts.node_id = 0;
    fopts.clock_origin_us = sim.now();
    fopts.config_digest = trace::fnv1a64(
        "mode=" + flags.str("mode") + " algo=" + flags.str("algo") +
        " batch=" + std::to_string(config.batch_size) +
        " reliable=" + (config.reliable ? "1" : "0") +
        " hops=" + std::to_string(hops) + " assocs=" + std::to_string(assocs) +
        " seed=" + std::to_string(seed));
    fopts.metrics_snapshot = [&] {
      refresh_observability();
      return registry.render_prometheus();
    };
    flight.emplace(fopts, &*trace_ring);
    if (!flight->ok()) {
      std::fprintf(stderr, "%s\n", flight->error().c_str());
      return 1;
    }
    trace::install_crash_handlers();
  }

  for (std::size_t a = 0; a < assocs; ++a) {
    const auto assoc_id = static_cast<std::uint32_t>(a + 1);
    initiator_node.add_initiator(assoc_id, /*peer=*/1, config,
                                 initiator_opts);
    if (want_metrics) hs_start_us.emplace(assoc_id, sim.now());
    initiator_node.start(assoc_id);
  }
  sim.run_until(30 * net::kSecond);
  // Under an adversarial schedule the handshake itself can be corrupted or
  // partitioned away; restarting replenishes the retransmit budget and
  // reissues the HS1 (same deterministic schedule per seed).
  for (int attempt = 0;
       attempt < 20 && initiator_node.established_count() < assocs;
       ++attempt) {
    const auto snap = initiator_node.snapshot(/*per_assoc=*/true);
    for (const auto& as : snap.assocs) {
      if (!as.established) initiator_node.start(as.assoc_id);
    }
    sim.run_until(sim.now() + 10 * net::kSecond);
  }
  if (initiator_node.established_count() != assocs) {
    std::fprintf(stderr,
                 flags.flag("require-protected") && !identity.has_value()
                     ? "handshake failed: --require-protected needs the "
                       "initiator to sign (--identity)\n"
                     : "handshake failed (loss too high?): %zu/%zu "
                       "associations established\n",
                 initiator_node.established_count(), assocs);
    return 1;
  }

  const std::size_t total = messages * assocs;
  const net::SimTime t0 = sim.now();
  for (std::size_t i = 0; i < messages; ++i) {
    for (std::size_t a = 0; a < assocs; ++a) {
      const std::uint64_t cookie =
          initiator_node.submit(static_cast<std::uint32_t>(a + 1),
                                crypto::Bytes(msg_size,
                                              static_cast<std::uint8_t>(i)));
      if (want_metrics) submit_time_us.emplace(cookie, sim.now());
    }
  }
  net::SimTime last_progress = sim.now();
  std::size_t last_count = 0;
  while (delivered < total) {
    if (config.reliable && delivered + failed_deliveries >= total) {
      break;  // every message settled: delivered or reported failed
    }
    sim.run_until(sim.now() + net::kSecond);
    if (trace_ring.has_value()) {
      span_builder.ingest_new(*trace_ring);  // stitch while the ring is hot
    }
    if (flight.has_value()) flight->drain();  // spill before the ring wraps
    if (telemetry.has_value()) telemetry->poll(0);
    if (delivered != last_count) {
      last_count = delivered;
      last_progress = sim.now();
    } else if (sim.now() - last_progress > 600 * net::kSecond) {
      break;  // stalled (chain exhausted without rekey, or loss too high)
    }
  }
  const double elapsed_s = static_cast<double>(sim.now() - t0) / net::kSecond;

  // Aggregate engine statistics through the runtime snapshots.
  const auto init_snap = initiator_node.snapshot(/*per_assoc=*/true);
  const auto resp_snap = responder_node.snapshot(/*per_assoc=*/true);
  core::SignerStats s;
  for (const auto& as : init_snap.assocs) {
    s.rounds_completed += as.signer.rounds_completed;
    s.rounds_failed += as.signer.rounds_failed;
    s.s1_sent += as.signer.s1_sent;
    s.s2_sent += as.signer.s2_sent;
    s.s1_retransmits += as.signer.s1_retransmits;
    s.s2_retransmits += as.signer.s2_retransmits;
    s.hashes.signature += as.signer.hashes.total();
  }
  std::uint64_t v_invalid = 0, v_hashes = 0;
  for (const auto& as : resp_snap.assocs) {
    v_invalid += as.verifier.invalid_packets;
    v_hashes += as.verifier.hashes.total();
  }

  std::printf("== alpha_sim results ==\n");
  std::printf("profile:        mode=%s algo=%s batch=%zu reliable=%s "
              "hops=%zu assocs=%zu loss=%.2f\n",
              flags.str("mode").c_str(), flags.str("algo").c_str(),
              config.batch_size, config.reliable ? "yes" : "no", hops, assocs,
              link.loss_rate);
  std::printf("delivered:      %zu/%zu messages (%.2f s simulated)\n",
              delivered, total, elapsed_s);
  if (config.reliable) std::printf("acknowledged:   %zu/%zu\n", acked, total);
  std::printf("goodput:        %.3f Mbit/s\n",
              static_cast<double>(delivered * msg_size * 8) /
                  (elapsed_s * 1e6));
  std::printf("signer:         rounds=%llu failed=%llu S1=%llu S2=%llu "
              "retrans=%llu hash-ops=%llu\n",
              static_cast<unsigned long long>(s.rounds_completed),
              static_cast<unsigned long long>(s.rounds_failed),
              static_cast<unsigned long long>(s.s1_sent),
              static_cast<unsigned long long>(s.s2_sent),
              static_cast<unsigned long long>(s.s1_retransmits +
                                              s.s2_retransmits),
              static_cast<unsigned long long>(s.hashes.signature));
  std::printf("verifier:       delivered=%llu invalid=%llu hash-ops=%llu\n",
              static_cast<unsigned long long>(resp_snap.messages_delivered),
              static_cast<unsigned long long>(v_invalid),
              static_cast<unsigned long long>(v_hashes));
  for (std::size_t i = 0; i < relay_nodes.size(); ++i) {
    const auto rs = relay_nodes[i]->snapshot();
    std::printf("relay %zu:        forwarded=%llu verified=%llu dropped=%llu "
                "hash-ops=%llu buffered=%zuB\n",
                i, static_cast<unsigned long long>(rs.relay.forwarded),
                static_cast<unsigned long long>(rs.relay.messages_extracted),
                static_cast<unsigned long long>(rs.relay.dropped_invalid +
                                                rs.relay.dropped_unsolicited),
                static_cast<unsigned long long>(rs.relay.hashes.total()),
                relay_nodes[i]->relay(0).buffered_bytes());
  }
  for (std::size_t i = 0; i < sharded_relay_nodes.size(); ++i) {
    const auto rs = sharded_relay_nodes[i]->snapshot();
    // No wall-clock figures here: the default results table must diff
    // bit-identical across same-seed runs (verify_batch_ns is exported as
    // a histogram under --metrics instead).
    std::printf("relay %zu:        forwarded=%llu verified=%llu dropped=%llu "
                "hash-ops=%llu workers=%u\n",
                i, static_cast<unsigned long long>(rs.relay.forwarded),
                static_cast<unsigned long long>(rs.relay.messages_extracted),
                static_cast<unsigned long long>(rs.relay.dropped_invalid +
                                                rs.relay.dropped_unsolicited),
                static_cast<unsigned long long>(rs.relay.hashes.total()),
                relay_workers);
  }
  std::printf("runtime:        frames in=%llu out=%llu demux-misses=%llu "
              "timer-fires=%llu accepted-handshakes=%llu\n",
              static_cast<unsigned long long>(init_snap.frames_in),
              static_cast<unsigned long long>(init_snap.frames_out),
              static_cast<unsigned long long>(init_snap.demux_misses),
              static_cast<unsigned long long>(init_snap.timer_fires),
              static_cast<unsigned long long>(resp_snap.accepted_handshakes));
  if (workers > 1) {
    std::uint64_t routed = 0, overflows = 0;
    for (const auto& ss : initiator_node.shard_stats()) {
      routed += ss.frames_routed;
      overflows += ss.in_overflows + ss.out_overflows;
    }
    for (const auto& ss : responder_node.shard_stats()) {
      routed += ss.frames_routed;
      overflows += ss.in_overflows + ss.out_overflows;
    }
    std::printf("shards:         workers=%u routed=%llu ring-overflows=%llu\n",
                workers, static_cast<unsigned long long>(routed),
                static_cast<unsigned long long>(overflows));
  }
  if (flags.flag("adaptive")) {
    // Counters only, like the rest of the table: same-seed runs must diff
    // bit-identical. The final profile is what the controller converged on;
    // with several associations each runs its own ladder, so show the rung
    // span alongside the first association's landing profile.
    std::uint64_t evals = 0, switches = 0, reconfigs = 0;
    std::size_t rung_lo = std::numeric_limits<std::size_t>::max();
    std::size_t rung_hi = 0;
    for (const auto& as : init_snap.assocs) {
      evals += as.adapt_evaluations;
      switches += as.adapt_switches;
      reconfigs += as.reconfigs_applied;
      rung_lo = std::min(rung_lo, as.adapt_profile);
      rung_hi = std::max(rung_hi, as.adapt_profile);
    }
    const char* final_mode = "?";
    std::size_t final_batch = 0;
    if (!init_snap.assocs.empty()) {
      switch (init_snap.assocs.front().mode) {
        case core::Mode::kBase: final_mode = "base"; break;
        case core::Mode::kCumulative: final_mode = "C"; break;
        case core::Mode::kMerkle: final_mode = "M"; break;
        case core::Mode::kCumulativeMerkle: final_mode = "C+M"; break;
      }
      final_batch = init_snap.assocs.front().batch;
    }
    std::printf("adaptivity:     evaluations=%llu switches=%llu "
                "reconfigs=%llu final=%s/%zu rungs=%zu..%zu\n",
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(switches),
                static_cast<unsigned long long>(reconfigs), final_mode,
                final_batch, rung_lo == std::numeric_limits<std::size_t>::max()
                                 ? std::size_t{0}
                                 : rung_lo,
                rung_hi);
  }
  const auto total_stats = network.total_stats();
  std::printf("network:        frames=%llu bytes=%llu lost=%llu\n",
              static_cast<unsigned long long>(total_stats.frames_sent),
              static_cast<unsigned long long>(total_stats.bytes_delivered),
              static_cast<unsigned long long>(total_stats.frames_lost));
  if (faults.any() || !flags.str("partition").empty()) {
    std::uint64_t failed_assocs = init_snap.failed + resp_snap.failed;
    std::printf("chaos:          corrupted=%llu duplicated=%llu "
                "reordered=%llu link-down=%llu rejected=%llu "
                "hs-replays=%llu forged-accepted=%zu failed-assocs=%llu\n",
                static_cast<unsigned long long>(total_stats.frames_corrupted),
                static_cast<unsigned long long>(total_stats.frames_duplicated),
                static_cast<unsigned long long>(total_stats.frames_reordered),
                static_cast<unsigned long long>(total_stats.frames_link_down),
                static_cast<unsigned long long>(init_snap.corrupt_frames +
                                                resp_snap.corrupt_frames +
                                                v_invalid),
                static_cast<unsigned long long>(
                    init_snap.replayed_handshakes +
                    resp_snap.replayed_handshakes),
                forged, static_cast<unsigned long long>(failed_assocs));
  }
  if (want_metrics) {
    refresh_observability();
    // One-shot distribution metrics that only make sense after the run.
    for (const auto& as : init_snap.assocs) {
      const std::string labels = assoc_label(as.assoc_id);
      const std::uint64_t packets = as.signer.s1_sent + as.signer.s2_sent;
      if (packets > 0) {
        registry.histogram("alpha_signer_hash_ops_per_packet", labels)
            .record(as.signer.hashes.total() / packets);
      }
      registry.histogram("alpha_retransmits", labels)
          .record(as.signer.s1_retransmits + as.signer.s2_retransmits);
    }
    for (const auto& as : resp_snap.assocs) {
      const std::string labels = assoc_label(as.assoc_id);
      const std::uint64_t packets =
          as.verifier.s1_accepted + as.verifier.s2_accepted;
      if (packets > 0) {
        registry.histogram("alpha_verifier_hash_ops_per_packet", labels)
            .record(as.verifier.hashes.total() / packets);
      }
    }
    // Relay verify latency is cumulative over the run, so merge it once
    // here rather than per scrape (merging in the refresh would
    // double-count samples on every poll).
    const auto merge_verify_ns = [&](std::size_t idx,
                                     const core::RelayStats& rs) {
      if (rs.verify_batch_ns.count() == 0) return;
      registry
          .histogram("alpha_relay_verify_batch_ns",
                     "relay=\"" + std::to_string(idx) + "\"")
          .merge(rs.verify_batch_ns);
    };
    for (std::size_t i = 0; i < relay_nodes.size(); ++i) {
      merge_verify_ns(i, relay_nodes[i]->snapshot().relay);
    }
    for (std::size_t i = 0; i < sharded_relay_nodes.size(); ++i) {
      merge_verify_ns(i, sharded_relay_nodes[i]->snapshot().relay);
    }
    if (span_builder.min_delivery_latency_us() != trace::SpanBuilder::kUnset) {
      std::printf("spans:          rounds=%llu failed=%llu deliveries=%llu "
                  "min-latency=%.3f ms\n",
                  static_cast<unsigned long long>(
                      span_builder.rounds_complete()),
                  static_cast<unsigned long long>(span_builder.rounds_failed()),
                  static_cast<unsigned long long>(span_builder.deliveries()),
                  static_cast<double>(
                      span_builder.min_delivery_latency_us()) / 1000.0);
    }
    std::printf("health:         %s\n", health.healthz_json().c_str());
    if (flags.flag("metrics")) {
      std::printf("== metrics ==\n");
      registry.write_prometheus(stdout);
    }
  }
  // Keep the endpoint alive for scrapers that attach after the run
  // (wall-clock time; the simulation is already over).
  if (telemetry.has_value() && serve_seconds > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(serve_seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      telemetry->poll(100);
    }
  }
  if (flight.has_value()) {
    flight->finalize();
    std::fprintf(stderr, "flight: %llu events in %llu segment(s) -> %s\n",
                 static_cast<unsigned long long>(flight->events_written()),
                 static_cast<unsigned long long>(flight->segments_opened()),
                 flight_dir.c_str());
  }
  if (trace_ring.has_value()) {
    trace::install(nullptr);
    trace::install_profiler(nullptr);
  }
  if (forged > 0) {
    std::fprintf(stderr, "FORGERY: %zu unauthentic payloads accepted\n",
                 forged);
    return 1;
  }
  return delivered == total ? 0 : 1;
}
