#!/usr/bin/env python3
"""Diffs two benchmark snapshots (tools/bench/snapshot.py output).

    python3 tools/bench/compare.py BENCH_15.json BENCH_16.json

For each workload and metric it prints the median of each side, the
relative change, and each side's spread (min-max over its runs). End-to-end
metrics (BENCHMARK.json "end_to_end") are held to their bounds: a change
worse than the bound in the metric's bad direction is a REGRESSION. Per-
layer metrics ("per_layer", from the --trace 1 runs) are reported only.
Exits 1 on a regression or on a run that was not correct, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def values(snapshot, workload, metric, trace):
    out = []
    for run in snapshot["runs"]:
        result = run.get("result") or {}
        if run["workload"] != workload or run["trace"] != trace:
            continue
        metrics = result.get("metrics", {})
        if metric in metrics:
            out.append(metrics[metric]["value"])
    return out


def bad_runs(snapshot):
    return [r for r in snapshot["runs"]
            if r.get("exit_code") != 0 or not r.get("result")
            or not r["result"].get("correct") or r["result"].get("failed")]


def fmt(x):
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    benchmark = load(os.path.join(ROOT, "BENCHMARK.json"))
    base, new = load(args.base), load(args.new)
    failed = False
    for name, snap in (("base", base), ("new", new)):
        for run in bad_runs(snap):
            print("%s: %s seed %s trace %s was not correct" % (
                name, run["workload"], run["seed"], run["trace"]))
            failed = True

    workloads = [w["name"] for w in benchmark["workloads"]]
    groups = [("end_to_end", 0), ("per_layer", 1)]
    for workload in workloads:
        print("\n== %s" % workload)
        print("%-26s %12s %12s %9s  %-21s %-21s %s" % (
            "metric", "base", "new", "change", "base min-max",
            "new min-max", "verdict"))
        for group, trace in groups:
            for spec in benchmark[group]:
                metric = spec["name"]
                a = values(base, workload, metric, trace)
                b = values(new, workload, metric, trace)
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                if ma != 0:
                    change = (mb - ma) / abs(ma)
                    change_s = "%+8.1f%%" % (100 * change)
                else:
                    change = None
                    change_s = "     n/a"
                verdict = ""
                if group == "end_to_end" and change is not None:
                    worse = change if spec["better"] == "lower" else -change
                    if worse > spec["bound"]:
                        verdict = "REGRESSION (bound %g)" % spec["bound"]
                        failed = True
                    else:
                        verdict = "ok"
                print("%-26s %12s %12s %9s  %-21s %-21s %s" % (
                    metric, fmt(ma), fmt(mb), change_s,
                    "%s-%s" % (fmt(min(a)), fmt(max(a))),
                    "%s-%s" % (fmt(min(b)), fmt(max(b))), verdict))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
