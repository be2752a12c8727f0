#!/usr/bin/env python3
"""CI gate for the observability perf-smoke job.

Compares two bench_hotpath JSON outputs -- one with tracing disabled, one
with a trace ring installed for the whole run (--traced) -- and enforces:

  1. Zero-allocation rows stay at exactly 0 allocs/op in BOTH runs. The
     legacy and merkle rows allocate by design (returning digests / building
     trees) and are excluded; the seed-only walker amortizes one checkpoint
     table allocation over ~16k steps and only has to stay tiny.
  2. Tracing costs < 5% on the hot path: the geometric mean of per-row
     traced/untraced ns-per-op ratios must stay below 1.05. A geomean over
     all rows is used instead of a per-row gate because individual ns-scale
     rows jitter more than 5% even on an idle machine; a systematic
     regression moves the whole distribution. The trace_emit row is the
     instrument itself, not an instrumented path, so it is excluded.

With --latency it instead validates a bench_latency_rtt JSON artifact
(BENCH_latency.json): schema shape, delivery >= 1.5 RTT within tolerance of
the paper's minimum, reliable ack ~2 RTT, and a TESLA baseline that is
RTT-bound (worse than ALPHA).

With --sharded it validates a bench_sharded JSON artifact
(BENCH_sharded.json): schema shape, an association sweep that reaches 10^6
concurrent associations with every association established and every message
delivered and zero ring overflows, and a complete 1/2/4-worker sweep. The
worker sweep's goodput must additionally be monotone from 1 to 4 workers --
but only when the recorded hardware_concurrency is >= 4: on fewer cores the
extra threads only add contention, so the scaling claim is untestable there
and the gate degrades to completeness checks.

With --relay it validates a bench_relay_mpps JSON artifact
(BENCH_relay_mpps.json): schema shape, an mpps sweep in which every frame
was verified and forwarded with zero drops, plus a complete 1/2/4-worker
relay sweep with full delivery, zero relay drops, and zero ring overflows.
Multi-worker scaling is only enforced when the recorded
hardware_concurrency is >= 4, mirroring the --sharded gate.

With --adaptive it validates a bench_adaptive JSON artifact
(BENCH_adaptive.json): schema shape with the three seeded chaos scenarios
(Gilbert-Elliott phase shift, partition cycle, loss ramp), an adaptive row
per scenario that delivered every submitted message, and an aggregate in
which the adaptive controller's goodput x efficiency score beats every
static (mode, batch) ladder rung while having actually switched profiles
and applied reconfigurations on the live association.

With --recorded it compares a --traced run against a --recorded run (the
same trace ring plus a flight recorder draining it once per measured
iteration) under the same discipline: zero-alloc rows stay at exactly 0 in
the recorded run too (the recorder's steady state must not allocate), and
the recorded/traced ns-per-op geomean stays below 1.05.

Usage: check_perf_smoke.py UNTRACED.json TRACED.json
       check_perf_smoke.py --recorded TRACED.json RECORDED.json
       check_perf_smoke.py --latency BENCH_latency.json
       check_perf_smoke.py --sharded BENCH_sharded.json
       check_perf_smoke.py --relay BENCH_relay_mpps.json
       check_perf_smoke.py --adaptive BENCH_adaptive.json
"""

import json
import math
import sys

# Rows that must never allocate, traced or not (PR 3's zero-alloc hot path).
ZERO_ALLOC_ROWS = {
    "chain_step",
    "prefix_mac",
    "hmac_per_call",
    "hmac_cached",
    "trace_emit",
}
# By-design allocators, excluded from the zero-alloc gate.
EXEMPT_ROWS = {"chain_step_legacy", "merkle_build_64", "merkle_s2_emit"}
# Amortized allocators: one setup allocation spread over many ops.
AMORTIZED_MAX = 0.01
# Rows excluded from the traced-vs-untraced ns/op comparison.
NO_COMPARE_ROWS = {"trace_emit"}
GEOMEAN_LIMIT = 1.05


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_allocs(label: str, rows: list) -> None:
    for row in rows:
        name, allocs = row["name"], row["allocs_per_op"]
        if name in ZERO_ALLOC_ROWS:
            if allocs != 0:
                fail(f"{label}: {name} allocates {allocs}/op (must be 0)")
        elif name not in EXEMPT_ROWS:
            if allocs > AMORTIZED_MAX:
                fail(f"{label}: {name} allocates {allocs}/op "
                     f"(amortized limit {AMORTIZED_MAX})")


def check_latency(path: str) -> None:
    doc = json.load(open(path))
    if doc.get("bench") != "latency_rtt":
        fail(f"{path}: bench != latency_rtt")
    if doc.get("schema_version") != 1:
        fail(f"{path}: unknown schema_version {doc.get('schema_version')}")
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: empty results")
    hops_seen = set()
    for row in rows:
        for key in ("hops", "reliable", "delivery_rtt", "ack_rtt"):
            if key not in row:
                fail(f"{path}: result row missing {key}")
        hops, reliable = row["hops"], row["reliable"]
        hops_seen.add(hops)
        delivery, ack = row["delivery_rtt"], row["ack_rtt"]
        # The paper's floor is 1.5 RTT (S1-A1-S2); the simulator adds a
        # polling-granularity epsilon on top, shrinking with hop count.
        if not 1.5 <= delivery <= 1.65:
            fail(f"{path}: {hops}-hop delivery {delivery} RTT outside "
                 f"[1.5, 1.65]")
        if reliable and not 2.0 <= ack <= 2.15:
            fail(f"{path}: {hops}-hop reliable ack {ack} RTT outside "
                 f"[2.0, 2.15]")
        if not reliable and ack != 0:
            fail(f"{path}: unreliable row reports an ack RTT")
    if not {1, 2, 4} <= hops_seen:
        fail(f"{path}: expected 1/2/4-hop rows, got {sorted(hops_seen)}")
    tesla = doc.get("tesla_baseline")
    if not isinstance(tesla, dict) or "verification_rtt" not in tesla:
        fail(f"{path}: missing tesla_baseline")
    if tesla["verification_rtt"] <= 2.0:
        fail(f"{path}: TESLA baseline {tesla['verification_rtt']} RTT "
             f"should exceed ALPHA's (disclosure-delay bound)")
    print(f"OK: {path} schema valid; delivery ~1.5 RTT, reliable ack ~2 RTT, "
          f"TESLA baseline {tesla['verification_rtt']} RTT")


def check_sharded(path: str) -> None:
    doc = json.load(open(path))
    if doc.get("bench") != "sharded":
        fail(f"{path}: bench != sharded")
    if doc.get("schema_version") != 1:
        fail(f"{path}: unknown schema_version {doc.get('schema_version')}")
    hw = doc.get("hardware_concurrency")
    if not isinstance(hw, int) or hw < 1:
        fail(f"{path}: missing/invalid hardware_concurrency")

    assoc_rows = doc.get("assoc_sweep")
    if not isinstance(assoc_rows, list) or not assoc_rows:
        fail(f"{path}: empty assoc_sweep")
    sizes = set()
    for row in assoc_rows:
        for key in ("assocs", "workers", "established", "delivered",
                    "ring_overflows"):
            if key not in row:
                fail(f"{path}: assoc_sweep row missing {key}")
        sizes.add(row["assocs"])
        if row["established"] != row["assocs"]:
            fail(f"{path}: {row['assocs']}-assoc row established only "
                 f"{row['established']}")
        if row["delivered"] != row["assocs"]:
            fail(f"{path}: {row['assocs']}-assoc row delivered only "
                 f"{row['delivered']}")
        if row["ring_overflows"] != 0:
            fail(f"{path}: {row['assocs']}-assoc row overflowed rings "
                 f"{row['ring_overflows']} times")
    if max(sizes) < 1_000_000:
        fail(f"{path}: assoc sweep stops at {max(sizes)}; the committed "
             f"artifact must demonstrate 10^6 concurrent associations")

    worker_rows = doc.get("worker_sweep")
    if not isinstance(worker_rows, list) or not worker_rows:
        fail(f"{path}: empty worker_sweep")
    goodput = {}
    for row in worker_rows:
        for key in ("workers", "messages", "delivered",
                    "goodput_msgs_per_s"):
            if key not in row:
                fail(f"{path}: worker_sweep row missing {key}")
        if row["delivered"] != row["messages"]:
            fail(f"{path}: {row['workers']}-worker row delivered "
                 f"{row['delivered']}/{row['messages']}")
        goodput[row["workers"]] = row["goodput_msgs_per_s"]
    if not {1, 2, 4} <= set(goodput):
        fail(f"{path}: expected 1/2/4-worker rows, got {sorted(goodput)}")
    if hw >= 4:
        if not goodput[1] <= goodput[2] <= goodput[4]:
            fail(f"{path}: goodput not monotone 1->4 workers on a "
                 f"{hw}-core host: {goodput[1]:.0f} / {goodput[2]:.0f} / "
                 f"{goodput[4]:.0f} msg/s")
        scaling = f"scaling {goodput[4] / goodput[1]:.2f}x at 4 workers"
    else:
        scaling = (f"scaling not gated (hardware_concurrency={hw}; "
                   f"gate requires >= 4 cores)")
    print(f"OK: {path} schema valid; 10^6-assoc sweep complete with zero "
          f"ring overflows; {scaling}")


def check_relay(path: str) -> None:
    doc = json.load(open(path))
    if doc.get("bench") != "relay_mpps":
        fail(f"{path}: bench != relay_mpps")
    if doc.get("schema_version") != 2:
        fail(f"{path}: unknown schema_version {doc.get('schema_version')}")
    hw = doc.get("hardware_concurrency")
    if not isinstance(hw, int) or hw < 1:
        fail(f"{path}: missing/invalid hardware_concurrency")

    rows = doc.get("mpps_sweep")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: empty mpps_sweep")
    rates = []
    for row in rows:
        for key in ("assocs", "frames", "forwarded", "dropped", "pkts_per_s"):
            if key not in row:
                fail(f"{path}: mpps_sweep row missing {key}")
        if row["forwarded"] != row["frames"]:
            fail(f"{path}: {row['assocs']}-assoc row forwarded "
                 f"{row['forwarded']}/{row['frames']}")
        if row["dropped"] != 0:
            fail(f"{path}: {row['assocs']}-assoc row dropped "
                 f"{row['dropped']} authentic frames")
        rates.append(f"{row['assocs']} assocs: {row['pkts_per_s']:.0f} pkts/s")

    worker_rows = doc.get("worker_sweep")
    if not isinstance(worker_rows, list) or not worker_rows:
        fail(f"{path}: empty worker_sweep")
    fwd_rate = {}
    for row in worker_rows:
        for key in ("workers", "messages", "delivered", "relay_dropped",
                    "relay_fwd_per_s", "ring_overflows"):
            if key not in row:
                fail(f"{path}: worker_sweep row missing {key}")
        if row["delivered"] != row["messages"]:
            fail(f"{path}: {row['workers']}-worker row delivered "
                 f"{row['delivered']}/{row['messages']}")
        if row["relay_dropped"] != 0:
            fail(f"{path}: {row['workers']}-worker row dropped "
                 f"{row['relay_dropped']} authentic frames at the relay")
        if row["ring_overflows"] != 0:
            fail(f"{path}: {row['workers']}-worker row overflowed rings "
                 f"{row['ring_overflows']} times")
        fwd_rate[row["workers"]] = row["relay_fwd_per_s"]
    if not {1, 2, 4} <= set(fwd_rate):
        fail(f"{path}: expected 1/2/4-worker rows, got {sorted(fwd_rate)}")
    if hw >= 4:
        if not fwd_rate[1] <= fwd_rate[4]:
            fail(f"{path}: relay forwarding rate regressed 1->4 workers on "
                 f"a {hw}-core host: {fwd_rate[1]:.0f} -> "
                 f"{fwd_rate[4]:.0f} fwd/s")
        scaling = f"scaling {fwd_rate[4] / fwd_rate[1]:.2f}x at 4 workers"
    else:
        scaling = (f"scaling not gated (hardware_concurrency={hw}; "
                   f"gate requires >= 4 cores)")
    print(f"OK: {path} schema valid; every frame forwarded "
          f"({', '.join(rates)}); worker sweep complete with zero drops "
          f"and overflows; {scaling}")


def check_adaptive(path: str) -> None:
    doc = json.load(open(path))
    if doc.get("bench") != "adaptive":
        fail(f"{path}: bench != adaptive")
    if doc.get("schema_version") != 1:
        fail(f"{path}: unknown schema_version {doc.get('schema_version')}")

    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or len(scenarios) < 3:
        fail(f"{path}: expected >= 3 scenarios")
    names = set()
    for sc in scenarios:
        for key in ("name", "chaos_seed", "duration_s", "rows"):
            if key not in sc:
                fail(f"{path}: scenario missing {key}")
        names.add(sc["name"])
        rows = sc["rows"]
        if not isinstance(rows, list) or not rows:
            fail(f"{path}: scenario {sc['name']} has no rows")
        adaptive_rows = [r for r in rows if r.get("adaptive")]
        if len(adaptive_rows) != 1:
            fail(f"{path}: scenario {sc['name']} needs exactly one "
                 f"adaptive row")
        for row in rows:
            for key in ("config", "adaptive", "submitted", "delivered",
                        "frames_sent", "score", "adapt_switches",
                        "reconfigs_applied"):
                if key not in row:
                    fail(f"{path}: {sc['name']}/{row.get('config')} row "
                         f"missing {key}")
        # The adaptive row must never trade delivery away: every submitted
        # message arrives in every scenario (statics are allowed to lose --
        # that is their score penalty).
        arow = adaptive_rows[0]
        if arow["delivered"] != arow["submitted"]:
            fail(f"{path}: adaptive row in {sc['name']} delivered "
                 f"{arow['delivered']}/{arow['submitted']}")
    if not {"ge_phase_shift", "partition_cycle", "loss_ramp"} <= names:
        fail(f"{path}: missing scenarios, got {sorted(names)}")

    agg = doc.get("aggregate")
    if not isinstance(agg, list) or not agg:
        fail(f"{path}: empty aggregate")
    adaptive_aggs = [a for a in agg if a.get("adaptive")]
    if len(adaptive_aggs) != 1:
        fail(f"{path}: need exactly one adaptive aggregate row")
    adap = adaptive_aggs[0]
    statics = [a for a in agg if not a.get("adaptive")]
    if len(statics) < 5:
        fail(f"{path}: expected the full static ladder, got "
             f"{[a.get('config') for a in statics]}")
    for a in statics:
        if adap["total_score"] <= a["total_score"]:
            fail(f"{path}: adaptive score {adap['total_score']:.3f} does "
                 f"not beat static {a['config']} "
                 f"({a['total_score']:.3f})")
    # The loop actually closed: the controller switched rungs and the
    # reconfigurations landed on the live association.
    if adap.get("adapt_switches", 0) <= 0:
        fail(f"{path}: adaptive run never switched profiles")
    if adap.get("reconfigs_applied", 0) <= 0:
        fail(f"{path}: adaptive run never applied a reconfiguration")
    if not adap.get("delivered_everything"):
        fail(f"{path}: adaptive run lost messages")
    margin = min(adap["total_score"] / a["total_score"]
                 for a in statics if a["total_score"] > 0)
    print(f"OK: {path} schema valid; adaptive beats every static rung "
          f"(min margin {margin:.2f}x), {adap['adapt_switches']} switches, "
          f"{adap['reconfigs_applied']} reconfigs, full delivery")


def compare_runs(base: dict, cand: dict, base_label: str,
                 cand_label: str) -> None:
    b_rows, c_rows = base["results"], cand["results"]
    if [r["name"] for r in b_rows] != [r["name"] for r in c_rows]:
        fail("row names differ between runs")

    check_allocs(base_label, b_rows)
    check_allocs(cand_label, c_rows)

    log_ratios = []
    for b, c in zip(b_rows, c_rows):
        if b["name"] in NO_COMPARE_ROWS:
            continue
        ratio = c["ns_per_op"] / b["ns_per_op"]
        log_ratios.append(math.log(ratio))
        print(f"  {b['name']:24} {b['ns_per_op']:10.1f} -> "
              f"{c['ns_per_op']:10.1f} ns/op  ({ratio:.3f}x)")
    geomean = math.exp(sum(log_ratios) / len(log_ratios))
    print(f"  geomean {cand_label}/{base_label}: {geomean:.4f} "
          f"(limit {GEOMEAN_LIMIT})")
    if geomean > GEOMEAN_LIMIT:
        fail(f"{cand_label} overhead geomean {geomean:.4f} > {GEOMEAN_LIMIT}")
    print(f"OK: zero-alloc rows clean, {cand_label} overhead within budget")


def check_recorded(traced_path: str, recorded_path: str) -> None:
    traced = json.load(open(traced_path))
    recorded = json.load(open(recorded_path))
    if traced.get("traced") is not True or traced.get("recorded") is True:
        fail("first argument must be a --traced (not --recorded) run")
    if recorded.get("recorded") is not True:
        fail("second argument must be a --recorded run")
    compare_runs(traced, recorded, "traced", "recorded")


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--latency":
        check_latency(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--sharded":
        check_sharded(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--relay":
        check_relay(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--adaptive":
        check_adaptive(sys.argv[2])
        return
    if len(sys.argv) == 4 and sys.argv[1] == "--recorded":
        check_recorded(sys.argv[2], sys.argv[3])
        return
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} [--latency LATENCY.json | "
             f"--sharded SHARDED.json | --relay RELAY_MPPS.json | "
             f"--adaptive ADAPTIVE.json | "
             f"--recorded TRACED.json RECORDED.json | "
             f"UNTRACED.json TRACED.json]")
    untraced = json.load(open(sys.argv[1]))
    traced = json.load(open(sys.argv[2]))
    if untraced.get("traced") is not False:
        fail("first argument must be an untraced run")
    if traced.get("traced") is not True:
        fail("second argument must be a --traced run")
    compare_runs(untraced, traced, "untraced", "traced")


if __name__ == "__main__":
    main()
