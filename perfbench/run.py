#!/usr/bin/env python3
"""Build and run one workload of the HALO repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The package in perfbench/ is configured with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset, and rebuilt incrementally on every call. Build output goes to
stderr. The program's stdout is relayed; its last line is the result
JSON {correct, attempted, failed, metrics}. The exit status is nonzero,
with no result printed, when the build fails, and nonzero after the
result when an outcome check fails. A traced run (--trace 1) also writes
its spans next to the build, one JSON object per line.

--selftest builds and runs the benchmark's own tests (C++ and Python).
"""

import argparse
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("emc_hot", "megaflow_wide", "churn_upcall", "paper_model")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(root).resolve() / "perfbench"


def build(target):
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir / target


def selftest():
    tests_ok = subprocess.run([str(build("perfbench_tests"))],
                              check=False).returncode == 0
    suite = unittest.defaultTestLoader.discover(str(HERE),
                                                pattern="test_*.py")
    py_ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if tests_ok and py_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    cmd = [str(build("halo_perfbench")), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
