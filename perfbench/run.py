#!/usr/bin/env python3
"""Repository benchmark: builds the vitbit libraries and the perfbench
binary from source, runs one workload, and prints one JSON result line.

    python3 perfbench/run.py --workload vit_timing --seed 1 --seconds 30 \
        --trace 0

Workloads, metrics and their meanings are listed in BENCHMARK.json (the
contract) and perfbench/catalog.json (threads, layers, which end-to-end
metric each per-layer metric should move). With --trace 0 the result
carries every end-to-end metric; with --trace 1 every per-layer metric,
and the spans are written to .bench_build/spans/. A failed output check
prints the result with "correct": false and exits 1; a failed build or
run exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Set-up is measured in fresh processes (the measuring processes plus
# set-up-only ones, so no process reuses another's set-up): at least
# SETUP_MIN of them, and more while their unscaled set-ups total under
# SETUP_BUDGET_S, up to SETUP_MAX, so millisecond set-ups get a steadier
# median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 1.0
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; raises on failure."""
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_binary(args, seconds, extra):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--root", ROOT] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["correct"] = result.get("correct", True) and proc.returncode == 0
    return result


def measure(args):
    """Untraced: measuring processes until --seconds is used (vit_timing
    times one sweep per process), then set-up-only processes as the
    SETUP_* limits allow. Returns the merged result."""
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < args.seconds:
        remaining = max(args.seconds - (time.monotonic() - start), 0.001)
        runs.append(run_binary(args, remaining, []))
        if not runs[-1]["correct"]:
            break
    setups = [r["setup_s"] for r in runs]
    raw_setups = [r["setup_raw_s"] for r in runs]
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and
                                      sum(raw_setups) < SETUP_BUDGET_S):
        r = run_binary(args, args.seconds, ["--setup-only"])
        setups.append(r["setup_s"])
        raw_setups.append(r["setup_raw_s"])
    units = [u for r in runs for u in r["units"]]
    raw_units = [u for r in runs for u in r["raw_units"]]
    print("processes = %d, units = %d" % (len(runs), len(units)))
    print("unscaled unit median = %.6g s" % statistics.median(raw_units))
    print("setup_s samples = %s s" % " ".join("%.6g" % s for s in setups))
    print("unscaled set-up median = %.6g s" % statistics.median(raw_setups))
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["metrics"]["peak_rss_mb"] for r in runs),
            "work_scaled_s": statistics.median(units),
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "catalog.json")) as f:
        catalog = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    if args.seconds < 1:
        log("--seconds must be >= 1")
        return 2

    build()

    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        result = run_binary(args, args.seconds, ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))])
        declared = bench["per_layer"]
        for m in declared:
            # A layer this workload never enters did no work in it.
            if m["name"] not in result["metrics"] and args.workload not in \
                    catalog["per_layer"][m["name"]]["workloads"]:
                result["metrics"][m["name"]] = 0
    else:
        result = measure(args)
        declared = bench["end_to_end"]

    got = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in got]
    if missing:
        print("missing metrics: " + ", ".join(missing))
    correct = result["correct"] and not missing
    out = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"] if correct else max(result["failed"], 1),
        "metrics": {m["name"]: {"value": got.get(m["name"]), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
