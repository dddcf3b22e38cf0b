#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny pass of each workload.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs a one-second untraced and
traced pass through run.py and checks that each metric BENCHMARK.json
names is printed with its unit, that the per-layer names are exactly the
documented ones, and that the span file parses. It also runs the
event-storm smoke case. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PER_LAYER = [
    "netsim.events_per_op", "netsim.hops_per_op", "netsim.events_per_hop",
    "netsim.cpu_ns_per_event", "netsim.packet_bytes",
    "netsim.bytes_moved_per_op", "netsim.heap_depth_peak",
    "netsim.drops_per_op", "transport.flows_per_op", "transport.retx_per_op",
    "transport.rto_per_op", "experiments.phase_ms", "experiments.phase_share",
    "experiments.sim_s_per_cpu_s", "core.localize_ms", "core.localize_share",
    "core.wehe_ms", "core.throughput_ms", "core.loss_corr_ms",
    "parallel.efficiency", "parallel.imbalance", "parallel.wait_fraction",
    "parallel.submit_p99_us", "obs.active_overhead", "obs.report_ms_per_op",
    "bench.trace_overhead",
]
SPAN_NAMES = {"op", "experiments.phase", "core.localize", "obs.report",
              "core.detectors", "core.wehe", "core.throughput",
              "core.loss_corr"}


def run(args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit("FAIL: run.py %s exited %d" % (" ".join(args), p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_metrics(label, result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("FAIL %s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        sys.exit("FAIL %s: correct=%s attempted=%s" %
                 (label, result["correct"], result["attempted"]))
    printed = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(printed) != set(want):
        sys.exit("FAIL %s: metrics %s, expected %s" %
                 (label, sorted(printed), sorted(want)))
    for name, unit in want.items():
        if printed[name]["unit"] != unit:
            sys.exit("FAIL %s: %s unit %r, expected %r" %
                     (label, name, printed[name]["unit"], unit))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if [m["name"] for m in bench["per_layer"]] != PER_LAYER:
        sys.exit("FAIL: BENCHMARK.json per_layer names differ from the "
                 "documented list")
    for w in bench["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "1", "--seconds", "1"]
        check_metrics(name + " --trace 0", run(base + ["--trace", "0"]),
                      bench["end_to_end"])
        check_metrics(name + " --trace 1", run(base + ["--trace", "1"]),
                      bench["per_layer"])
        spans_path = os.path.join(ROOT, ".bench_build", "spans",
                                  name + "-seed1.json")
        with open(spans_path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        if not events or not names <= SPAN_NAMES:
            sys.exit("FAIL %s: span names %s" % (name, sorted(names)))
        print("ok   %s" % name)
    smoke = run(["--smoke-event-storm"])
    if smoke["attempted"] != 1 or smoke["failed"] != 1:
        sys.exit("FAIL: event-storm op not counted as failed: %s" % smoke)
    print("ok   event-storm op counted as failed")


if __name__ == "__main__":
    main()
