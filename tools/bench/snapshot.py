#!/usr/bin/env python3
"""Records one point of the benchmark trajectory as BENCH_<n>.json.

    python3 tools/bench/snapshot.py --out BENCH_16.json
    python3 tools/bench/snapshot.py --out BENCH_15.json --checkout ../parent

Runs perfbench/run.py (of --checkout, default: this checkout) for every
workload in BENCHMARK.json, at its run_seconds: once per seed in SEEDS with
--trace 0 (the end-to-end metrics), then once with --trace 1 at the first
seed (the per-layer metrics). Snapshots compare only at the same seeds, so
the seeds are fixed. Each run's result line and `facts` line (machine, compiler,
inputs) go into the output file, in run order. Compare two files with
tools/bench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEEDS = (1, 2)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    facts = None
    for line in lines:
        if line.startswith("facts "):
            facts = json.loads(line[len("facts "):])
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": proc.returncode, "result": result, "facts": facts}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--checkout", default=ROOT,
                        help="checkout whose perfbench runs (default: this one)")
    parser.add_argument("--commit", default=None,
                        help="commit to record (default: the checkout's HEAD)")
    args = parser.parse_args()

    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]

    commit = args.commit or subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    runs = []
    ok = True
    for workload in workloads:
        plan = [(seed, 0) for seed in SEEDS] + [(SEEDS[0], 1)]
        for seed, trace in plan:
            entry = run_once(checkout, workload, seed, seconds, trace)
            result = entry["result"]
            good = (entry["exit_code"] == 0 and result is not None
                    and result.get("correct") and result.get("failed") == 0)
            ok = ok and bool(good)
            print("%-15s seed %d trace %d: %s" % (
                workload, seed, trace, "ok" if good else "FAILED"),
                file=sys.stderr)
            runs.append(entry)

    snapshot = {"commit": commit, "seconds": seconds, "seeds": list(SEEDS),
                "runs": runs}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
