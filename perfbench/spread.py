#!/usr/bin/env python3
"""Runs one workload with several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,4,5]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json.  Runs go through
run.py one after another, from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    args = parser.parse_args()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}

    values = {}
    for seed in args.seeds.split(","):
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
                   "--seed", seed, "--seconds", str(seconds), "--trace", "0"]
        completed = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            sys.exit(f"seed {seed}: exit code {completed.returncode}")
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{name}={metric['value']:.6g}"
                                          for name, metric in result["metrics"].items()),
              flush=True)

    print(f"{'metric':34} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        center = statistics.median(series)
        quartiles = statistics.quantiles(series, n=4) if len(series) > 1 else [center] * 3
        spread = (quartiles[2] - quartiles[0]) / center if center else 0.0
        bound = bounds.get(name)
        print(f"{name:34} {center:12.6g} {spread:8.4f} {'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
