#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of the same build
must agree within the bounds BENCHMARK.json fixes.

    python3 perfbench/steady.py [--runs 10]

Run it from the repository root. For each workload of BENCHMARK.json it runs
set A and set B interleaved (A B A B ...) for run_seconds each, run i of both
sets with seed i, so drift over time lands on both sets alike instead of
between them. For every (workload, end-to-end metric) pair it prints each
set's median and quartiles, the spread (Q3 - Q1) / median against the
metric's bound, and the change of B's median from A's in the metric's worse
direction. A pair is flagged when its spread exceeds the bound or when B's
median differs from A's, either way, by more than the bound. Exits 1 when
any pair is flagged or any run failed.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()

    flagged = 0
    print(f"{'workload':9} {'metric':17} {'set':3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6} {'B vs A':>7}  flags")
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for seed in range(1, opts.runs + 1):
            for name in ("A", "B"):
                sets[name].append(run_once(bench["command"], workload, seed,
                                           bench["run_seconds"]))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {s: summary([r[name] for r in runs]) for s, runs in sets.items()}
            worse = (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            if metric["better"] == "higher":
                worse = -worse
            for s in ("A", "B"):
                median, q1, q3, spread = stats[s]
                flags = []
                if spread > bound:
                    flags.append("SPREAD")
                if s == "B" and abs(worse) > bound:
                    flags.append("DRIFT")
                flagged += bool(flags)
                drift = f"{worse:+7.3f}" if s == "B" else " " * 7
                print(f"{workload:9} {name:17} {s:3} {median:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {spread:7.3f} {bound:6.2f} {drift}  "
                      f"{' '.join(flags)}")
    print("steady" if not flagged else f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as error:
        print(f"steady.py: {error}", file=sys.stderr)
        sys.exit(1)
