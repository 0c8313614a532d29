#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

Run from the root of a source checkout:

  python3 ivbench/run.py --workload ingest_decompose --seed 1 --seconds 10 --trace 0

builds the measuring program (ivbench/CMakeLists.txt, Release, into
.ivbench_build/), prepares the workload's seeded input, runs it in a fresh
process, and prints one JSON object as the last line of standard output:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json (untraced run),
--trace 1 the per-layer metrics (traced run; the ledger and spans land in
.ivbench_build/out/). Human-readable tables go to standard error.

Steadiness mode reruns each workload with different seeds and prints, per
metric, the median, the quartile spread as a share of the median, and the
metric's bound from BENCHMARK.json:

  python3 ivbench/run.py --steadiness 10 [--workloads a,b] [--sets 2]

--all runs every workload once and prints one table of every metric with
its unit and sample count.

README.md in this directory documents the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".ivbench_build"
WORKLOADS = ("ingest_decompose", "serve_read", "serve_write")
# The seed used while writing the benchmark (its ingest_decompose results
# are pinned), and a seed held out for confirming later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# Steadiness runs use seeds from here on (neither of the two above).
STEADINESS_FIRST_SEED = 100
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out:", " ".join(cmd))
        return -1


def build():
    """Configures (once) and builds the ivbench target; returns its path."""
    binary = os.path.join(BUILD_DIR, "ivbench")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_logged(["cmake", "--build", BUILD_DIR, "--target", "ivbench",
                       "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(binary):
        return None
    return binary


def source_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def prepare_ingest_input(binary, seed):
    """The seeded triplet file of ingest_decompose (cached for one seed)."""
    data_dir = os.path.join(BUILD_DIR, "data")
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, "ingest_%d.tri" % seed)
    if os.path.exists(path):
        return path
    for name in os.listdir(data_dir):  # keep one input on disk
        os.remove(os.path.join(data_dir, name))
    tmp = path + ".tmp"
    if run_logged([binary, "gen", "--seed=%d" % seed, "--out=" + tmp],
                  RUN_TIMEOUT_S) != 0:
        return None
    os.replace(tmp, path)
    return path


def declared_metrics():
    """(end_to_end, per_layer) names from BENCHMARK.json, if present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None, None
    return ([m["name"] for m in spec.get("end_to_end", [])],
            [m["name"] for m in spec.get("per_layer", [])])


def run_once(workload, seed, seconds, trace, binary=None):
    """Runs one workload; returns (result object, full report), or
    (None, None) when the workload could not run."""
    binary = binary or build()
    if binary is None:
        log("build failed")
        return None, None
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "run", "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--out_dir=" + out_dir, "--commit=" + source_revision()]
    if workload == "ingest_decompose":
        path = prepare_ingest_input(binary, seed)
        if path is None:
            log("input preparation failed")
            return None, None
        cmd.append("--input=" + path)
    report_path = os.path.join(out_dir, "report_%s_%d_%d.json" %
                               (workload, seed, trace))
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd.append("--report=" + report_path)
    if run_logged(cmd, RUN_TIMEOUT_S) != 0:
        log("workload run failed:", workload)
        return None, None
    with open(report_path) as f:
        report = json.load(f)

    kind = "layer" if trace else "e2e"
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in report["metrics"].items() if m["kind"] == kind}
    correct = report["failed"] == 0 and report["attempted"] > 0
    e2e, layer = declared_metrics()
    expected = layer if trace else e2e
    if expected is not None:
        missing = [n for n in expected if n not in metrics]
        if missing:
            log("missing metrics:", ", ".join(missing))
            correct = False
        metrics = {n: metrics[n] for n in expected if n in metrics}
    for name, m in metrics.items():
        if m["value"] is None or not math.isfinite(m["value"]):
            log("non-finite metric:", name)
            correct = False
    return ({"correct": correct, "attempted": report["attempted"],
             "failed": report["failed"], "metrics": metrics}, report)


def steadiness(runs, workloads, seconds, sets):
    """Reruns each workload and prints median, quartile spread and bound."""
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        bounds = {}
    worst = 0
    for workload in workloads:
        medians = []
        for s in range(sets):
            values = {}
            start = time.time()
            for i in range(runs):
                seed = STEADINESS_FIRST_SEED + s * runs + i
                result, _ = run_once(workload, seed, seconds, 0, binary)
                if result is None or not result["correct"]:
                    log("run failed or incorrect:", workload, seed)
                    worst = 1
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print("%s, set %d: %d runs in %.0f s" %
                  (workload, s + 1, runs, time.time() - start))
            print("  %-24s %14s %9s %7s %7s  %s" %
                  ("metric", "median", "spread", "bound", "ok", "min..max"))
            set_medians = {}
            for name, vals in values.items():
                median = statistics.median(vals)
                set_medians[name] = median
                spread = float("nan")
                if len(vals) >= 2 and median != 0:
                    q = statistics.quantiles(vals, n=4)
                    spread = (q[2] - q[0]) / abs(median)
                bound = bounds.get(name)
                ok = "-" if bound is None else (
                    "yes" if spread <= bound / 3 else
                    "near" if spread <= bound else "NO")
                print("  %-24s %14.6g %8.2f%% %6s%% %7s  %.4g..%.4g" %
                      (name, median, 100 * spread,
                       "-" if bound is None else "%.0f" % (100 * bound), ok,
                       min(vals), max(vals)))
            medians.append(set_medians)
        if len(medians) >= 2:
            print("  median drift, set 2 vs set 1:")
            for name in medians[0]:
                if name in medians[1] and medians[0][name] != 0:
                    drift = medians[1][name] / medians[0][name] - 1
                    print("    %-24s %+8.2f%%" % (name, 100 * drift))
        sys.stdout.flush()
    return worst


def run_all(seed, seconds, trace):
    """Runs every workload once; prints each metric with unit and samples."""
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    status = 0
    print("%-17s %-32s %16s %-6s %9s" %
          ("workload", "metric", "value", "unit", "samples"))
    for workload in WORKLOADS:
        result, report = run_once(workload, seed, seconds, trace, binary)
        if result is None:
            print("%-17s run failed" % workload)
            status = 1
            continue
        for name, m in result["metrics"].items():
            samples = report["metrics"][name].get("samples", "")
            print("%-17s %-32s %16.6g %-6s %9s" %
                  (workload, name, m["value"], m["unit"], samples))
        print("%-17s correct=%s attempted=%d failed=%d" %
              (workload, result["correct"], result["attempted"],
               result["failed"]))
        if not result["correct"]:
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="rerun each workload RUNS times (seeds vary)")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness: repeat the whole set this often")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="steadiness: comma-separated workloads")
    parser.add_argument("--all", action="store_true",
                        help="run every workload once and print one table")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.steadiness:
        return steadiness(args.steadiness, args.workloads.split(","),
                          args.seconds, args.sets)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
