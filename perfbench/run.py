#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload with one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first run configures and builds
the library (through the repository's own CMakeLists.txt) and the perfbench
program under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
only what changed.  Build output goes to standard error, so the last line of
standard output is the program's result object.  The exit code is the
program's: 0 only when every output check passed.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("canonical-sparse", "classify-large", "canonical-drop", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configures once, then builds incrementally; returns the program's path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(REPO_ROOT, "src")
    ):
        fail(f"the repository sources are missing under {REPO_ROOT}")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("configuring the build failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode:
            fail("building failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="self-test only: corrupt one reference outcome so the run must fail",
    )
    args = parser.parse_args()

    build_root = os.path.abspath(
        os.path.join(REPO_ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    program = build(build_root)

    # Sockets and stores live in a per-run directory the program runs in
    # (short relative socket paths); spans of traced runs are kept.
    work_dir = os.path.join(build_root, "runs", str(os.getpid()))
    trace_dir = os.path.join(build_root, "traces")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        program,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-dir", trace_dir,
    ]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        completed = subprocess.run(command, cwd=work_dir, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
