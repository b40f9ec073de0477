#!/usr/bin/env python3
"""Runs the benchmark several times per workload and summarizes each metric.

Usage (from the repository root):

    python3 warpbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace 0|1] [--out summary.json]

Every run uses the command, run_seconds and workloads of BENCHMARK.json,
with a different --seed. For each metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread: the interquartile distance as a share of the median, next to
the metric's bound. A run that exits non-zero or reports
"correct": false stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    summary = {}
    for workload in names:
        runs = [run_once(bench["command"], workload, seed, bench["run_seconds"], args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            s = metrics[name]
            bound = bounds.get(name)
            print(f"{workload:<13} {name:<32} median {s['median']:>14.4f} "
                  f"q1 {s['q1']:>14.4f} q3 {s['q3']:>14.4f} spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""), flush=True)
        summary[workload] = metrics
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
