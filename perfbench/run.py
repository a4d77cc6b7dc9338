#!/usr/bin/env python3
"""End-to-end benchmark of the Adios simulator (see perfbench/README.md).

Builds perfbench/perfbench.cc together with the simulator sources, runs one
workload, checks the program's outputs, and prints every metric with its unit.
The last line of standard output is one JSON object:

  {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a separate run that turns the tracer on.

Usage, from the repository root:

  python3 perfbench/run.py --workload array-uniform --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30

`--workload all` runs every workload with tracing off and on. The build goes
to $CARGO_TARGET_DIR (default .bench_build) under the repository root.
Exits non-zero, without a result line, when the build or a run fails, and
with a result line marked "correct": false when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("array-uniform", "kv-zipf-writes", "stride-r2-lossy")

END_TO_END_UNITS = {
    "goodput_krps": "KRPS",
    "p50_us": "us",
    "p999_us": "us",
    "slo_krps": "KRPS",
    "success_frac": "ratio",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_req": "count/req",
    "sim.ns_per_event": "ns",
    "unithread.pool_setup_s": "s",
    "apps.setup_s": "s",
    "loadgen.measured": "count",
    "loadgen.sent": "count",
    "dispatcher.util": "ratio",
    "dispatcher.queue_us.mean": "us",
    "dispatcher.queue_us.p99": "us",
    "worker.util": "ratio",
    "worker.cycles_per_req": "cycles/req",
    "worker.yields_per_req": "count/req",
    "worker.qp_full_stalls": "count",
    "worker.pf_imbalance": "fetches",
    "worker.fetch_retries": "count",
    "worker.fetch_timeouts": "count",
    "worker.failovers": "count",
    "mem.faults_per_req": "count/req",
    "mem.shared_faults": "count",
    "mem.frame_stalls": "count",
    "mem.evictions_dirty": "count",
    "mem.writeback_retries": "count",
    "mem.frame_refills": "count",
    "mem.prefetch_accuracy": "ratio",
    "mem.prefetch_wasted": "count",
    "mem.chunk_early_wakes": "count",
    "rdma.link_util": "ratio",
    "rdma.doorbells_saved": "count",
    "link.demand_bytes": "B",
    "link.prefetch_bytes": "B",
    "link.background_bytes": "B",
    "node.suspect_events": "count",
    "integrity.detected": "count",
    "integrity.repaired": "count",
    "integrity.scrub_pages": "count",
    "span.server_us.mean": "us",
    "span.server_us.p99": "us",
    **{
        f"span.{segment}_share.{tag}": "ratio"
        for tag in ("p50", "p99")
        for segment in ("queue", "exec", "fetch_stall", "frame_stall", "preempted", "tx")
    },
    "obs.trace_overhead": "ratio",
    "obs.span_build_s": "s",
    "host.run_wall_s": "s",
    "host.reference_loop_s": "s",
}

# A benchmark run must end within 180 s; the binary spends the measurement
# budget and a little fixed work beyond it.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compilers put temporaries under TMPDIR; keep them inside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return build_dir / "adios_perfbench"


def drive(binary, workload, seed, mode, seconds):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--budget", str(seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}/{mode}: timed out after {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # A wrong reply aborts the binary inside LoadGenerator's verify check.
        raise BenchError(f"{workload}/{mode}: benchmark binary exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(name, value, units):
    return name, {"value": value, "unit": units[name]}


def end_to_end(binary, workload, seed, seconds):
    raw = drive(binary, workload, seed, "e2e", seconds)
    sim = raw["sim"]
    metrics = dict(
        [metric(name, sim[name], END_TO_END_UNITS)
         for name in ("goodput_krps", "p50_us", "p999_us", "slo_krps", "success_frac")]
        + [metric("setup_s", statistics.median(raw["setup_s"]), END_TO_END_UNITS),
           metric("run_s", statistics.median(raw["run_s"]), END_TO_END_UNITS),
           metric("peak_rss_mb", raw["peak_rss_mb"], END_TO_END_UNITS)])
    print(f"[{workload}] SLO ladder (P99.9 limit, zero drops, zero failed):")
    for rung in raw["ladder"]:
        print(f"  {rung['rate_krps']:8.1f} KRPS  P99.9 {rung['p999_us']:10.3f} us  "
              f"dropped {rung['dropped']}  failed {rung['failed']}  "
              f"{'pass' if rung['pass'] else 'miss'}")
    print(f"[{workload}] {len(raw['run_s'])} nominal runs, {len(raw['setup_s'])} set-ups; "
          f"median run wall time {statistics.median(raw['run_wall_s']):.4f} s, "
          f"reference loop {statistics.median(raw['reference_loop_s']):.4f} s")
    return raw, metrics


def per_layer(binary, workload, seed, seconds):
    raw = drive(binary, workload, seed, "trace", seconds)
    values = {**raw["counters"], **raw["spans"], **raw["host"]}
    missing = sorted(set(PER_LAYER_UNITS) - set(values))
    if missing:
        raw["problems"].append("missing per-layer metrics: " + ", ".join(missing))
    metrics = dict(metric(name, values[name], PER_LAYER_UNITS)
                   for name in PER_LAYER_UNITS if name in values)
    print(f"[{workload}] {raw['iterations']} untraced + traced run pairs, "
          f"{raw['trace_records_per_req']:.1f} trace records per request")
    return raw, metrics


def run_one(binary, workload, seed, seconds, trace):
    if trace:
        raw, metrics = per_layer(binary, workload, seed, seconds)
    else:
        raw, metrics = end_to_end(binary, workload, seed, seconds)
    for problem in raw["problems"]:
        print(f"[{workload}] CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        if args.workload != "all":
            result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    one = run_one(binary, workload, args.seed, args.seconds, trace)
                    result["correct"] = result["correct"] and one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    result["metrics"].update(
                        {f"{workload}/{k}": v for k, v in one["metrics"].items()})
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
