#!/usr/bin/env python3
"""Checks that a figure bench's modeled output does not depend on the host's
worker count: it runs the bench at CSTF_THREADS=1 and at CSTF_THREADS=4 on a
small analog and fails unless the two stdouts are byte-identical.

Usage: modeled_output_ignores_worker_count.py BENCH

The bench prints modeled device time only, and the device records of every
MTTKRP come from the tensor's shape and the rank (DESIGN.md section 2), so
the worker count may change host wall time but no printed byte.
"""
import difflib
import os
import subprocess
import sys


def run(bench, threads):
    env = dict(os.environ, CSTF_THREADS=str(threads), CSTF_ANALOG_NNZ="5000")
    env.pop("CSTF_BENCH_JSON", None)  # no telemetry files
    env.pop("CSTF_BENCH_JSON_DIR", None)
    result = subprocess.run([bench], capture_output=True, text=True, env=env,
                            timeout=300)
    if result.returncode != 0:
        print("%s at %d workers exited %d:\n%s"
              % (bench, threads, result.returncode, result.stderr))
        sys.exit(1)
    return result.stdout


def main():
    bench = sys.argv[1]
    one, four = run(bench, 1), run(bench, 4)
    if one != four:
        print("stdout differs between 1 and 4 workers:")
        sys.stdout.writelines(difflib.unified_diff(
            one.splitlines(True), four.splitlines(True),
            "CSTF_THREADS=1", "CSTF_THREADS=4"))
        return 1
    print("identical stdout at 1 and 4 workers (%d bytes)" % len(one))
    return 0


if __name__ == "__main__":
    sys.exit(main())
