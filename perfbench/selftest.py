#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload through run.py with short windows and checks that:
  - every run prints every metric BENCHMARK.json names, with its unit
    (end-to-end metrics untraced, per-layer metrics traced);
  - two seeds give different configuration fingerprints but the same
    metric names and units;
  - two traced runs on the same seed repeat every exact counter bit for bit;
  - a deliberately wrong reference makes failed > 0 and the exit code
    non-zero.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SECONDS = 1

# Per-layer metrics that are pure functions of the replayed jobs.
EXACT = (
    "generate.calls_per_config",
    "generate.edges_per_config",
    "classify.iterations_per_call",
    "classify.steps_per_call",
    "compile.rounds_per_schedule",
    "simulate.node_rounds_per_job",
    "simulate.transmissions_per_job",
    "simulate.global_rounds_per_job",
    "fault.injected_per_job",
    "fault.detected_share",
    "store.bytes_per_entry",
    "wire.bytes_per_job",
)


def run(workload, seed, seconds, trace, *extra):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    completed = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    match = re.search(r"first-config-fingerprint=(\d+)", completed.stderr)
    return completed.returncode, result, match.group(1) if match else None, completed.stderr


def expect(ok, what, stderr=""):
    if not ok:
        sys.stderr.write(stderr[-2000:])
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok: {what}", flush=True)


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}

    for workload in (entry["name"] for entry in spec["workloads"]):
        code, first, first_fp, err = run(workload, 1, SECONDS, 0)
        expect(code == 0 and first and first["correct"] and first["failed"] == 0,
               f"{workload}: untraced run passes its checks", err)
        expect(units(first) == end_to_end,
               f"{workload}: untraced run prints every end-to-end metric with its unit", err)
        expect(all(metric["value"] != 0 for metric in first["metrics"].values()),
               f"{workload}: no end-to-end metric reads 0", err)
        code, second, second_fp, err = run(workload, 2, SECONDS, 0)
        expect(code == 0 and units(second) == units(first),
               f"{workload}: seed 2 prints the same metric names and units", err)
        expect(first_fp is not None and second_fp is not None and first_fp != second_fp,
               f"{workload}: seeds 1 and 2 give different configuration fingerprints")

        code, traced, _, err = run(workload, 1, SECONDS, 1)
        expect(code == 0 and traced and traced["correct"] and units(traced) == per_layer,
               f"{workload}: traced run passes and prints every per-layer metric", err)
        code, again, _, err = run(workload, 1, SECONDS, 1)
        expect(code == 0 and all(traced["metrics"][name] == again["metrics"][name]
                                 for name in EXACT),
               f"{workload}: exact counters repeat across two traced runs", err)

        code, wrong, _, err = run(workload, 1, SECONDS, 0, "--corrupt-reference")
        expect(code != 0 and wrong and wrong["failed"] > 0 and not wrong["correct"],
               f"{workload}: a wrong reference fails the run", err)
    print("selftest passed")


if __name__ == "__main__":
    main()
