#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload <ingest|diagnose|restart> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench (and the libraries it needs from src/) in .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits 2 without a result
when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
