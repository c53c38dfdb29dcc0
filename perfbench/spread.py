#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0] [WORKLOAD ...]

Runs the command in BENCHMARK.json once per seed (seeds first-seed ..
first-seed + runs - 1) for each workload (default: all), then prints, per
metric, the median of the runs and the interquartile range as a share of
the median (Python's statistics.quantiles, n=4), next to the metric's
bound. A spread is steady when it stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({args.runs} runs)")
        for name, vs in values.items():
            median = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name) if args.trace == "0" else None
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady &= ok
                verdict = "ok" if ok else "WIDE"
            print(f"{name:40s} median {median:14.6g} spread {spread:7.3f} bound {bound} {verdict}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
