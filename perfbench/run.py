#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload boot_table4 --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
the library and the perfbench binary from source into .bench_build/;
later calls rebuild incrementally. The binary's output is passed
through: metrics by name with units, deterministic counts, the outcome
digest, and a final JSON line. Exits non-zero, without a result, when
the checkout holds no library sources or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/; "
                 "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="small fleets, few rounds (the checks' self-test)")
    parser.add_argument("--misstate", action="store_true",
                        help="mis-state one expectation; the run must fail")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if args.misstate:
        cmd.append("--misstate")
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%s.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
