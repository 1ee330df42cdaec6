#!/usr/bin/env python3
"""Self-test of the rdfsr benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py [--workloads persons,custom_rule]

1. Every workload, in a reduced run (--seconds 1: a single repetition and
   the shortest untraced baseline), must print as its last line a result
   with correct = true, no failed operation, and exactly the metrics
   BENCHMARK.json names, each with its unit: the end-to-end ones with
   --trace 0, the per-layer ones with --trace 1.
2. Every traced run's Chrome trace must be well-formed JSON whose spans
   nest: each span lies inside the span recorded as its parent.
3. A planted wrong reference answer (--plant-wrong-reference) must make
   failed > 0, correct = false and a non-zero exit code.

Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.relpath(HERE), "run.py")


def run(workload, trace, plant=False):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", trace]
    if plant:
        cmd.append("--plant-wrong-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, result, proc.stderr


def trace_problems(workload):
    """Checks the Chrome trace the traced run left behind."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(build_dir, "traces", "%s-seed7.json" % workload)
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return ["trace %s unreadable: %s" % (path, e)]
    by_id = {e["args"]["id"]: e for e in events}
    problems = []
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0:
            problems.append("bad event %s" % e)
        parent = by_id.get(e["args"]["parent"])
        if e["args"]["parent"] >= 0 and (
                parent is None or e["ts"] < parent["ts"] or
                e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + 0.01):
            problems.append("span %s (id %d) escapes its parent" %
                            (e["name"], e["args"]["id"]))
    if not events:
        problems.append("trace has no spans")
    return problems


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()

    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in args.workloads.split(","):
        for trace in ("0", "1"):
            label = "%s --trace %s" % (workload, trace)
            code, result, err = run(workload, trace)
            if result is None:
                failures.append("%s: no result line (exit %d)\n%s" %
                                (label, code, err[-2000:]))
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            problems = []
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append("exit %d, correct %s, failed %s" %
                                (code, result["correct"], result["failed"]))
            if result["attempted"] < 1:
                problems.append("attempted %s" % result["attempted"])
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace] and
                               got[n] != expected[trace][n])
                problems.append("metrics missing %s, extra %s, wrong unit %s"
                                % (missing, extra, wrong))
            if trace == "1":
                problems += trace_problems(workload)
            for name, value in result["metrics"].items():
                if not isinstance(value.get("value"), (int, float)):
                    problems.append("%s is not a number" % name)
            print("%-32s %s" % (label, "ok" if not problems else "FAIL"))
            failures += ["%s: %s" % (label, p) for p in problems]

    workload = "custom_rule" if "custom_rule" in args.workloads else \
        args.workloads.split(",")[0]
    code, result, _ = run(workload, "0", plant=True)
    planted_ok = (code != 0 and result is not None and
                  not result["correct"] and result["failed"] > 0 and
                  result["failed"] / result["attempted"] > 0)
    print("%-32s %s" % (workload + " planted wrong answer",
                        "ok" if planted_ok else "FAIL"))
    if not planted_ok:
        failures.append("planted wrong reference did not fail the run "
                        "(exit %d, result %s)" % (code, result))

    for f in failures:
        print("FAILED " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
