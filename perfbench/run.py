#!/usr/bin/env python3
"""The rdfsr benchmark: one command per workload run.

    python3 perfbench/run.py --workload persons --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. It builds the benchmark program and the
repository's library from source (Release, into .bench_build/), writes the
workload's seeded N-Triples inputs into a temporary directory inside
.bench_build/ (generation is never timed), runs the measurement in its own
process, removes the inputs, and relays the program's output. The last line
of standard output is the result JSON:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; the traced run also leaves its Chrome trace (open it in
Perfetto) in .bench_build/traces/. --plant-wrong-reference corrupts one
recorded answer, which must fail the run (see perfbench/selftest.py).
The exit code is 0 only when every answer checked out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out


def build(build_dir):
    source = os.path.relpath(HERE)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", source, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    code, _ = run(["cmake", "--build", build_dir, "--target",
                   "rdfsr_perfbench", "-j", jobs],
                  BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        return None
    return os.path.join(build_dir, "rdfsr_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--plant-wrong-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    inputs = os.path.join(build_dir, "inputs-%d" % os.getpid())
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    try:
        code, _ = run([binary, "gen", "--workload", args.workload,
                       "--seed", str(args.seed), "--out", inputs],
                      GEN_TIMEOUT_S)
        if code != 0:
            print("perfbench: input generation failed", file=sys.stderr)
            return 2
        cmd = [binary, "run", "--workload", args.workload, "--inputs", inputs,
               "--seconds", repr(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        if args.plant_wrong_reference:
            cmd.append("--plant-wrong-reference")
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        lines = out.rstrip("\n").split("\n")
        # Only a program that ran to the end printed a result line.
        if not lines or not lines[-1].startswith("{"):
            sys.stdout.write(out)
            print("perfbench: no result from the program (exit %d)" % code,
                  file=sys.stderr)
            return code or 2
        sys.stdout.write(out)
        sys.stdout.flush()
        return code
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
