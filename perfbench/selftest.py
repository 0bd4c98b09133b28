#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. Each workload runs at a tiny size, untraced
and traced, and must pass every correctness gate and report exactly the
metrics BENCHMARK.json names. Each workload then runs with one reference
result deliberately altered (--corrupt-reference): its gates must fail, so
error_frac rises above 0 and the run exits nonzero. Exits 1 on any mismatch.
"""
import json
import subprocess
import sys


def run(command, workload, trace, extra=()):
    args = command + ["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result = run(bench["command"], workload, trace)
            what = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{what}: exit {code}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{what}: gates failed ({result['failed']} of "
                                f"{result['attempted']})")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{what}: metrics differ from BENCHMARK.json")
            print(f"ok    {what}: {result['attempted']} gated operations")
        code, result = run(bench["command"], workload, 0, ["--corrupt-reference"])
        what = f"{workload} --corrupt-reference"
        if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
            problems.append(f"{what}: an altered reference did not fail the gates")
        else:
            frac = result["failed"] / result["attempted"]
            print(f"ok    {what}: error_frac {frac:.3f}, exit {code}")
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
