#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/test_checks.py

For every workload, at tiny size with its default seed:
  - the run passes (correct, nothing failed, exit 0);
  - a second run prints the same deterministic counts and digest;
  - the same run with one expectation deliberately mis-stated
    (--misstate: a benign device put in the expected-convicted or
    expected-quarantined set) fails, exits non-zero, and names the check.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# The check each workload's mis-stated expectation must trip.
MISSTATED_CHECK = {
    "boot_table4": "cfa-convicted",
    "heartbeat_10k": "diverged-convicted",
    "ota_heal": "quarantine-set",
}


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--tiny",
         "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def deterministic(lines):
    return [l for l in lines if l.startswith(("count ", "digest "))]


def main():
    failures = []
    for workload, check in MISSTATED_CHECK.items():
        before = len(failures)
        code, lines, result = run(workload)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            failures.append("%s: default run did not pass" % workload)
        _, again, _ = run(workload)
        if deterministic(lines) != deterministic(again):
            failures.append("%s: counts or digest differ between runs"
                            % workload)
        code, lines, result = run(workload, "--misstate")
        named = any(l.startswith("FAILED check %s:" % check) for l in lines)
        if code == 0 or result["correct"] or not named:
            failures.append("%s: mis-stated expectation not caught by %s"
                            % (workload, check))
        status = "ok" if len(failures) == before else "FAILED"
        print("%-14s %s" % (workload, status), flush=True)
    for failure in failures:
        print("FAILED", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
