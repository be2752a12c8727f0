#include "workload_common.hpp"

#include "crypto/counter.hpp"

namespace perfbench {

void DeliverySink::on_message(std::uint32_t assoc_id,
                              alpha::crypto::ByteView payload,
                              std::uint64_t now) {
  const bool timed = tracing();
  const std::uint64_t t0 = timed ? wall_ns() : 0;
  const std::uint64_t due = oracle->deliver(assoc_id, payload);
  if (due != UINT64_MAX && record && now >= due &&
      latency_us->size() < latency_us->capacity()) {
    latency_us->push_back(static_cast<double>(now - due) / clock_scale_us);
  }
  if (timed) thread_app_ns() += wall_ns() - t0;
}

Counts Counts::operator-(const Counts& b) const {
  Counts d;
  d.ops = ops - b.ops;
  d.hash_ops = hash_ops - b.hash_ops;
  d.bytes_hashed = bytes_hashed - b.bytes_hashed;
  d.allocs = allocs - b.allocs;
  d.alloc_bytes = alloc_bytes - b.alloc_bytes;
  d.frames = frames - b.frames;
  d.wire_bytes = wire_bytes - b.wire_bytes;
  d.timer_fires = timer_fires - b.timer_fires;
  d.retransmits = retransmits - b.retransmits;
  d.msgs_submitted = msgs_submitted - b.msgs_submitted;
  d.rounds_started = rounds_started - b.rounds_started;
  d.signer_hashes = signer_hashes - b.signer_hashes;
  d.verifier_hashes = verifier_hashes - b.verifier_hashes;
  d.msgs_delivered = msgs_delivered - b.msgs_delivered;
  d.relay_hashes = relay_hashes - b.relay_hashes;
  d.relay_forwarded = relay_forwarded - b.relay_forwarded;
  d.relay_frames_in = relay_frames_in - b.relay_frames_in;
  d.relay_s2_in = relay_s2_in - b.relay_s2_in;
  return d;
}

void add_snapshot(Counts& c, const alpha::core::NodeSnapshot& s,
                  bool relay_node) {
  c.timer_fires += s.timer_fires;
  c.retransmits += s.retransmits;
  if (relay_node) {
    c.relay_hashes += s.relay.hashes.total();
    c.relay_forwarded += s.relay.forwarded;
    return;
  }
  for (const auto& a : s.assocs) {
    c.msgs_submitted += a.signer.messages_submitted;
    c.rounds_started += a.signer.rounds_started;
    c.signer_hashes += a.signer.hashes.total();
    c.verifier_hashes += a.verifier.hashes.total();
    c.msgs_delivered += a.verifier.messages_delivered;
  }
}

void add_process(Counts& c, const std::deque<Tally>& tallies) {
  const auto h = alpha::crypto::HashOpCounter::snapshot();
  c.hash_ops += h.hash_finalizations;
  c.bytes_hashed += h.bytes_hashed;
  const AllocCounts a = alloc_counts();
  c.allocs += a.count;
  c.alloc_bytes += a.bytes;
  for (const Tally& t : tallies) {
    c.frames += t.frames_out.get();
    c.wire_bytes += t.bytes_out.get();
    if (t.role == Role::kRelay) {
      c.relay_frames_in += t.frames_in.get();
      c.relay_s2_in += t.s2_in.get();
    }
  }
}

void add_tallies(Ledger& l, const std::deque<Tally>& tallies) {
  for (const Tally& t : tallies) {
    l.send_ns += t.send_ns;
    l.send_frames += t.send_frames;
    l.recv_batch_ns += t.recv_batch_ns;
    if (t.role == Role::kRelay) {
      l.relay_ns += t.cb_self_ns + t.timer_self_ns;
      l.relay_frames += t.cb_frames;
    } else {
      l.host_ns += t.cb_self_ns + t.timer_self_ns;
      l.host_frames += t.cb_frames;
    }
  }
}

namespace {
double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
}  // namespace

void add_layer_metrics(const LayerInputs& in, Result& r) {
  const Counts& p = in.prefix;
  const Ledger& l = in.ledger;
  const double ops = static_cast<double>(p.ops);
  const double tops = static_cast<double>(l.ops);
  const double k = in.speed;  // wall ns -> reference ns

  // net
  r.add("net.sim_self_ns_per_op", k * ratio(l.sim_self_ns, tops), "ns");
  r.add("net.send_ns_per_frame", k * ratio(l.send_ns, l.send_frames), "ns");
  r.add("net.frames_per_op", ratio(p.frames, ops), "count");

  // node
  r.add("node.relay_dispatch_ns_per_frame",
        k * ratio(l.relay_ns, l.relay_frames), "ns");
  r.add("node.host_dispatch_ns_per_frame", k * ratio(l.host_ns, l.host_frames),
        "ns");
  r.add("node.submit_ns_per_op", k * ratio(l.submit_ns, l.msgs), "ns");
  r.add("node.timer_fires_per_op", ratio(p.timer_fires, ops), "count");
  r.add("node.retransmits_per_op", ratio(p.retransmits, ops), "count");

  // host / relay engines, through the nodes' snapshots
  r.add("host.msgs_per_round", ratio(p.msgs_submitted, p.rounds_started),
        "count");
  r.add("host.signer_hash_ops_per_msg",
        ratio(p.signer_hashes, p.msgs_submitted), "count");
  r.add("host.verifier_hash_ops_per_msg",
        ratio(p.verifier_hashes, p.msgs_delivered), "count");
  r.add("relay.hash_ops_per_s2", ratio(p.relay_hashes, p.relay_s2_in),
        "count");
  r.add("relay.forwarded_ratio", ratio(p.relay_forwarded, p.relay_frames_in),
        "ratio");

  // crypto (exact, thread-local counter on the driving thread)
  r.add("crypto.hash_ops_per_op", ratio(p.hash_ops, ops), "count");
  r.add("crypto.bytes_hashed_per_op", ratio(p.bytes_hashed, ops), "B");

  // process
  r.add("alloc.count_per_op", ratio(p.allocs, ops), "count");
  r.add("alloc.bytes_per_op", ratio(p.alloc_bytes, ops), "B");

  // ledger: each timed layer as its share of attributed time, and what no
  // layer accounts for. Single-threaded shapes divide by the traced wall
  // window; threaded ones by process CPU time over the same window.
  const double attributed = static_cast<double>(l.attributed());
  const double window =
      in.cpu_window_ns > 0 ? in.cpu_window_ns
                           : static_cast<double>(l.window_ns);
  r.add("ledger.unattributed_share",
        window > 0 ? std::max(0.0, 1.0 - attributed / window) : 0.0, "ratio");
  r.add("net.sim_self_share", ratio(l.sim_self_ns, attributed), "ratio");
  r.add("net.send_share", ratio(l.send_ns, attributed), "ratio");
  r.add("node.relay_dispatch_share", ratio(l.relay_ns, attributed), "ratio");
  r.add("node.host_dispatch_share", ratio(l.host_ns, attributed), "ratio");
  r.add("node.submit_share", ratio(l.submit_ns, attributed), "ratio");
  r.add("app.oracle_share", ratio(l.app_ns, attributed), "ratio");
  r.add("trace.overhead_ratio",
        ratio(in.traced_ops_per_s, in.untraced_ops_per_s), "ratio");
  r.add("latency.samples", static_cast<double>(in.latency_samples), "count");
  if (!in.socket_transport) return;

  // Layers only a socket transport driven by recv_batch/send_batch has.
  r.add("net.recv_batch_ns_per_frame",
        k * ratio(l.recv_batch_ns, in.recv_batch_frames), "ns");
  r.add("net.recv_batch_share", ratio(l.recv_batch_ns, attributed), "ratio");
  r.add("net.frames_per_recv_batch",
        ratio(in.recv_batch_frames,
              in.recv_batch_calls - in.recv_batch_empty),
        "count");
  r.add("net.empty_recv_ratio",
        ratio(in.recv_batch_empty, in.recv_batch_calls), "ratio");
  r.add("net.lost_frames_per_op", in.lost_frames_per_op, "count");
  r.add("node.relay_residence_us_p50", quantile(in.residence_us, 0.5), "us");
  r.add("node.relay_residence_us_p99", quantile(in.residence_us, 0.99), "us");
  r.add("node.ring_in_depth_p99", in.ring_in_depth_p99, "count");
  r.add("node.ring_overflows", in.ring_overflows, "count");
  r.add("gen.lateness_us_p99", in.lateness_us_p99, "us");
}

}  // namespace perfbench
