#!/usr/bin/env python3
"""End-to-end benchmark runner: builds e2e_bench from source, runs one
workload, checks its answers and prints the metrics.

    python3 perfbench/run.py --workload enum_elim --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench.
Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones. The line before it is a detail
record: seed, host fingerprint, workload shape and sample counts. The raw
samples are also kept under .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("enum_elim", "fixpoint_add", "serve_eco")
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_s": "s",
    "cpu_s_per_op": "s",
    "noise_share": "ratio",
    "peak_rss_mib": "MiB",
    "served_rps": "req/s",
}


def per_layer_unit(name):
    """Per-layer units follow from the metric names' suffixes."""
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ms") or ".ms_per_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_share") or name.endswith(".utilization"):
        return "ratio"
    return "count"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    def run(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"'{' '.join(cmd)}' exited {done.returncode}")

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j",
         str(min(os.cpu_count() or 1, 4))])
    return os.path.join(BUILD, "e2e_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"e2e_bench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"e2e_bench exited {done.returncode}")
        return 1
    raw = json.loads(lines[-1])

    try:
        if args.trace:
            values = metrics.per_layer(raw)
            units = {name: per_layer_unit(name) for name in values}
        else:
            values = metrics.end_to_end(raw)
            units = END_TO_END_UNITS
    except ValueError as e:  # e.g. too few samples for a tail percentile
        log(f"cannot reduce the samples: {e}")
        return 1
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    detail = {
        "workload": raw["workload"],
        "seed": args.seed,
        "trace": args.trace,
        "host": raw["host"],
        "shape": raw["shape"],
        "failed_share": metrics.failed_share(attempted, failed),
        "first_error": raw["first_error"],
    }
    result = {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }

    results_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump({"detail": detail, "result": result, "raw": raw}, f)

    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
