#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Checks, for every workload:
  * every metric BENCHMARK.json names is printed, finite, with its unit
    (end-to-end with --trace 0, per-layer with --trace 1);
  * on the simulated workloads, the exact counts repeat to the digit across
    two runs with the same seed;
  * a run with link loss switched on reports failed ops > 0, which proves
    failures are counted rather than hidden.
Exits non-zero on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM = ["mesh_relay", "direct_assocs", "assoc_churn"]
EXACT_E2E = ["wire_bytes_per_op", "latency_p50_us", "latency_p99_us",
             "mem_bytes_per_assoc"]
EXACT_LAYER = ["crypto.hash_ops_per_op", "net.frames_per_op",
               "alloc.count_per_op"]
SOCKET_LAYER = ["net.recv_batch_ns_per_frame", "net.frames_per_recv_batch",
                "net.empty_recv_ratio", "net.lost_frames_per_op",
                "node.relay_residence_us_p50", "node.relay_residence_us_p99",
                "node.ring_in_depth_p99", "node.ring_overflows"]


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    return result


def check_metrics(workload, result, spec):
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            sys.exit(f"FAIL {workload}: metric {m['name']} missing")
        if not math.isfinite(got["value"]) or got["unit"] != m["unit"]:
            sys.exit(f"FAIL {workload}: metric {m['name']} = {got}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    socket_spec = [{"name": n, "unit": u} for n, u in zip(
        SOCKET_LAYER, ["ns", "count", "ratio", "count", "us", "us", "count",
                       "count"])]
    for workload in SIM + ["udp_relay"]:
        e2e = [run(workload, 0) for _ in range(2 if workload in SIM else 1)]
        layer = [run(workload, 1) for _ in range(2 if workload in SIM else 1)]
        for r in e2e + layer:
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                sys.exit(f"FAIL {workload}: oracle {r['correct']} "
                         f"{r['attempted']} {r['failed']}")
        check_metrics(workload, e2e[0], bench["end_to_end"])
        check_metrics(workload, layer[0], bench["per_layer"])
        if workload == "udp_relay":
            check_metrics(workload, layer[0], socket_spec)
            print(f"ok {workload}: metrics present")
            continue
        for names, pair in ((EXACT_E2E, e2e), (EXACT_LAYER, layer)):
            for n in names:
                a, b = (r["metrics"][n]["value"] for r in pair)
                if a != b:
                    sys.exit(f"FAIL {workload}: {n} not exact: {a} vs {b}")
        print(f"ok {workload}: metrics present, exact counts repeat")

    lossy = run("mesh_relay", 0, extra=("--loss", "0.01"))
    if lossy["failed"] == 0:
        sys.exit("FAIL mesh_relay --loss 0.01: no failed ops reported")
    print(f"ok mesh_relay with loss: {lossy['failed']} of "
          f"{lossy['attempted']} ops failed and were counted")


if __name__ == "__main__":
    main()
