#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check

The first form builds the benchmark program from ../src (once per build directory),
runs the workload in a fresh process for S seconds, then runs a separate
verification pass, and prints every metric by name with its unit. Its last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. The exit code is 0 only when every output was correct.

--check is the benchmark's self-test: simulated results at the committed
results' sizes and seeds must equal fig3's 8-byte cells, BENCH_scale.json's
4096-CP torus cells and BENCH_multitenant.json's 8-tenant fair cell, and every
simulated statistic must repeat exactly across invocations.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and the traced run's spans to spans/ beside it.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fine_records", "coarse_blocks", "scale_torus", "shared_tenants"]
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # The whole measured run, build excluded.

# Metrics that measure the host, not the simulation: the only ones that may
# differ between invocations with the same seed.
HOST_METRICS = {
    "wall_s", "trial_ms.p50", "trial_ms.tail", "peak_rss_mb", "setup_s",
    "sim.host_ns_per_event", "sim.frame_pool_hit_ratio", "net.route_ns", "disk.access_ns",
    "pattern.walk_ms", "fs.layout_ms", "core.machine_build_ms", "core.fs_start_ms",
    "core.run_phase_ms", "core.verify_ms", "obs.trace_overhead",
}


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no simulator sources at {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j",
                  str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return out / "perfbench"


def run_program(binary, mode, workload, seed, seconds, deadline, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args):
    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    spans = None
    if args.trace:
        spans = build_dir() / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
    main = run_program(binary, "traced" if args.trace else "timed", args.workload, args.seed,
                      args.seconds, deadline, spans)
    # Verification runs in its own process: the validation sink doubles peak
    # RSS, which the measured process reports.
    verify = run_program(binary, "verify", args.workload, args.seed, args.seconds, deadline)
    correct = main["correct"] and verify["correct"]
    if main["fingerprint"] != verify["fingerprint"]:
        print("perfbench: simulated statistics differ between the measured and the "
              "verification process", file=sys.stderr)
        correct = False

    metrics = dict(main["metrics"])
    if args.trace:
        metrics.update(verify["metrics"])
    names = declared_metrics(args.trace)
    if sorted(names) != sorted(metrics):
        raise BenchError(f"benchmark metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(names)}")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for name in names:
        print(f"  {name:26s} {metrics[name]['value']:>18.6f} {metrics[name]['unit']}")
    for note in main["notes"]:
        print(f"  note: {note}")
    if spans is not None:
        print(f"  spans: {spans}")
    result = {
        "correct": correct,
        "attempted": main["attempted"] + verify["attempted"],
        "failed": main["failed"] + verify["failed"],
        "metrics": {name: metrics[name] for name in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def committed_references():
    """Expected per-workload reference cells, from the committed results."""
    # fig3's 8-byte cells at simulate's defaults (10 MB, 1 trial, seed 1000),
    # as README.md quotes them.
    expected = {"fine_records": {"tc rc": (1.02, 2), "ddio wc": (7.13, 2)}}
    with open(ROOT / "BENCH_scale.json") as f:
        points = json.load(f)["points"]
    labels = {"TC": "tc rb", "DDIO(sort)": "ddio rb"}
    expected["scale_torus"] = {
        labels[p["method"]]: (p["mean_mbps"], 4) for p in points
        if p["CPs"] == 4096 and p["spec"] == "torus" and p["method"] in labels}
    with open(ROOT / "BENCH_multitenant.json") as f:
        cells = json.load(f)["cells"]
    cell = next(c for c in cells
                if c["disk"] == "hp97560" and c["sched"] == "fair" and c["tenants"] == 8)
    expected["shared_tenants"] = {"worst_p50": (cell["worst_p50"], 4),
                                  "worst_p99": (cell["worst_p99"], 4)}
    return expected


def check():
    binary = build()
    failures = []
    for workload, cells in committed_references().items():
        got = run_program(binary, "reference", workload, DEFAULT_SEED, 1,
                         time.monotonic() + 600)
        for label, (want, digits) in cells.items():
            value = got["cells"].get(label)
            ok = got["correct"] and value is not None and round(value, digits) == want
            print(f"reference {workload:15s} {label:10s} want {want} got {value}: "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{workload} {label}")

    # Same seed, two invocations: every simulated statistic repeats exactly.
    for workload in WORKLOADS:
        for mode in ("timed", "traced"):
            runs = [run_program(binary, mode, workload, DEFAULT_SEED, 1, time.monotonic() + 600)
                    for _ in range(2)]
            sim = [{k: v["value"] for k, v in r["metrics"].items() if k not in HOST_METRICS}
                   for r in runs]
            ok = (all(r["correct"] for r in runs) and sim[0] == sim[1]
                  and runs[0]["fingerprint"] == runs[1]["fingerprint"])
            print(f"determinism {workload:15s} {mode:7s} {len(sim[0])} simulated metrics, "
                  f"fingerprint {runs[0]['fingerprint']}: {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"determinism {workload} {mode}")
    print("check: " + ("FAIL " + ", ".join(failures) if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    try:
        if args.check:
            return check()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
