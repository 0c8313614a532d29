#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark: a reference commit against
the current checkout, in alternating pairs.

Run from the root of a source checkout:

  python3 tools/ab_bench.py --ref <commit> [--workloads a,b] [--pairs 10] \\
      [--seed 1] [--out ab_runs.json]

The reference commit is checked out with `git worktree add --detach` into a
temporary directory (removed at exit). Each pair runs

  python3 ivbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, alternating which side runs first; each tree builds its
own ivbench (in its .ivbench_build/) from its own sources. The run length T
(run_seconds), metric names, directions ("better") and bounds come from
BENCHMARK.json, so every A/B runs at the length the bounds were set for.
For every workload and end-to-end metric the report gives the parent's
median and its interquartile range as a share of the median, the change's
median and IQR, the ratio change / parent, the pairs the change won (ties
count for neither side), and one verdict:

  worse past bound  the change's median is worse than the parent's by more
                    than the bound;
  unresolved        the parent's IQR exceeds the bound and not every change
                    run beats every parent run;
  within bound      otherwise.

Every run's result is written to --out. The exit status is non-zero when
any run failed, was not correct, or had failed operations. Uses the
standard library only and makes no network access.
"""

import argparse
import atexit
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("ingest_decompose", "serve_read", "serve_write")
# run.py's build, input-generation and run limits, which a tree's first
# run can each use.
RUN_TIMEOUT_S = 850 + 170 + 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git(*args, cwd=None):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def add_reference_tree(root, ref):
    """Checks `ref` out into a fresh temporary worktree, removed at exit."""
    parent_dir = tempfile.mkdtemp(prefix="ab_bench_")
    tree = os.path.join(parent_dir, "ref")
    git("worktree", "add", "--detach", tree, ref, cwd=root)

    def remove():
        subprocess.run(["git", "worktree", "remove", "--force", tree],
                       cwd=root, capture_output=True)
        shutil.rmtree(parent_dir, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root,
                       capture_output=True)

    atexit.register(remove)
    return tree


def run_side(tree, workload, seed, seconds):
    """One untraced ivbench run in `tree`; returns its result object or None."""
    cmd = [sys.executable, os.path.join("ivbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out:", tree, workload)
        return None
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def run_ok(result):
    return (result is not None and result.get("correct") is True and
            result.get("failed") == 0 and result.get("attempted", 0) > 0)


def iqr_share(values):
    """(q3 - q1) / |median|, as run.py's steadiness mode computes it."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median)


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if p_med != 0:
        ratio = c_med / p_med
        worse = ratio > 1 + bound if direction == "lower" else ratio < 1 - bound
        if worse:
            return "worse past bound"
    dominates = all(better(c, p, direction) for c in change for p in parent)
    if iqr_share(parent) > bound and not dominates:
        return "unresolved"
    return "within bound"


def report(workload, pairs, spec):
    print("%s: %d pairs" % (workload, len(pairs)))
    print("  %-22s %12s %8s %12s %8s %7s %6s  %s" %
          ("metric", "parent", "IQR", "change", "IQR", "ratio", "won",
           "verdict"))
    for metric in spec["end_to_end"]:
        name, direction = metric["name"], metric["better"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs
                  if name in p["metrics"]]
        change = [c["metrics"][name]["value"] for _, c in pairs
                  if name in c["metrics"]]
        if not parent or len(parent) != len(change):
            print("  %-22s missing" % name)
            continue
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        won = sum(better(c, p, direction) for p, c in zip(parent, change))
        ratio = c_med / p_med if p_med != 0 else float("nan")
        print("  %-22s %12.6g %7.1f%% %12.6g %7.1f%% %6.2fx %3d/%-2d  %s" %
              (name, p_med, 100 * iqr_share(parent), c_med,
               100 * iqr_share(change), ratio, won, len(pairs),
               verdict(parent, change, direction, metric["bound"])))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", required=True,
                        help="reference (parent) commit")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="ab_runs.json",
                        help="JSON file for every run's result")
    args = parser.parse_args()

    root = git("rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown or args.pairs < 1:
        parser.error("unknown workloads %s or --pairs < 1" % unknown)

    trees = {"parent": add_reference_tree(root, args.ref), "change": root}
    log("parent %s in %s; change %s" %
        (git("rev-parse", "--short", args.ref, cwd=root), trees["parent"],
         root))
    runs = []
    status = 0
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                               "parent")
            pair = {}
            for side in order:
                start = time.time()
                result = run_side(trees[side], workload, args.seed, seconds)
                ok = run_ok(result)
                runs.append({"workload": workload, "pair": i, "side": side,
                             "seed": args.seed, "seconds": seconds,
                             "wall_s": round(time.time() - start, 1),
                             "ok": ok, "result": result})
                log("%s pair %d %s: %s" %
                    (workload, i + 1, side, "ok" if ok else "FAILED"))
                if not ok:
                    status = 1
                pair[side] = result
            if run_ok(pair["parent"]) and run_ok(pair["change"]):
                pairs.append((pair["parent"], pair["change"]))
            with open(args.out, "w") as f:
                json.dump({"ref": args.ref, "runs": runs}, f, indent=1)
        if pairs:
            report(workload, pairs, spec)
    return status


if __name__ == "__main__":
    sys.exit(main())
