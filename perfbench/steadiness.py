#!/usr/bin/env python3
"""Steadiness report for the HALO repository benchmark.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--workloads emc_hot,paper_model]
        [--seeds 1-10] [--seconds 10]

Runs perfbench/run.py once per workload and seed, then prints, for every
metric, the median, the quartiles (statistics.quantiles, n=4), min and
max, and the interquartile spread as a share of the median beside the
metric's bound from BENCHMARK.json, so bounds can be set from measured
spread. The host-speed probes every run prints on its "perfbench-diag"
line are summarised the same way, as diagnostics only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIAG_PREFIX = "perfbench-diag "


def parse_seeds(text):
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    """Median, quartiles, extremes and interquartile spread / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    diag = {}
    for line in lines:
        if line.startswith(DIAG_PREFIX):
            diag = json.loads(line[len(DIAG_PREFIX):])
    return json.loads(lines[-1]), diag


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in workloads:
        samples = {}
        for seed in parse_seeds(args.seeds):
            result, diag = run_once(workload, seed, seconds)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            for name, value in diag.items():
                samples.setdefault("diag." + name, []).append(value)
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        print(f"\n{workload} ({seconds:g} s runs)")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for name, values in samples.items():
            s = summarize(values)
            bound = bounds.get(name)
            verdict = ""
            if bound:
                verdict = ("ok" if s["spread"] <= bound / 3 else
                           "within bound" if s["spread"] <= bound else
                           "TOO NOISY")
            print(f"  {name:34} {s['median']:12.4g} {s['q1']:12.4g} "
                  f"{s['q3']:12.4g} {s['min']:12.4g} {s['max']:12.4g} "
                  f"{s['spread']:7.3f} {bound if bound else '':>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
