#!/usr/bin/env python3
"""Provenance-aware comparator for two BENCH_*.json artifacts.

CI uses this to gate regressions against committed baselines:

    bench_diff.py baseline.json current.json [--threshold 0.10]

Metrics come in two classes and the distinction is the whole point:

  deterministic — simulated/traced counts (bucket reads per lookup).
      Identical code must reproduce them on any host,
      so they are always compared, regardless of where either file
      was produced.
  timing — wall-clock rates (ops/sec, cpu-pps, Mops) and hardware PMU
      rates. These only mean something when both files came from the
      same machine and build flags, so they are compared only when the
      meta blocks agree (hostname + cxx_flags + build_type) or
      --force-timing overrides.

Exit codes: 0 ok, 1 regression, 2 usage/file error, 3 provenance
mismatch under --strict-provenance.
"""

import argparse
import json
import sys

# Fields of the "meta" block that must agree for timing numbers from
# the two files to be comparable at all.
PROVENANCE_KEYS = ("hostname", "cxx_flags", "build_type")

DETERMINISTIC = "deterministic"
TIMING = "timing"

HIGHER = "higher"
LOWER = "lower"


class Metric:
    def __init__(self, name, value, kind, direction):
        self.name = name
        self.value = value
        self.kind = kind
        self.direction = direction


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cells_key(cell):
    return "cells[%s,occ=%s,hit=%s]" % (
        cell.get("mode"), cell.get("occupancy"), cell.get("hit_ratio"))


def extract_cuckoo_miss_sweep(doc):
    out = []
    for top, direction in (("miss_speedup", HIGHER),
                           ("bulk_hit_speedup", HIGHER)):
        if _num(doc.get(top)):
            out.append(Metric(top, doc[top], TIMING, direction))
    for cell in doc.get("cells", []):
        key = _cells_key(cell)
        for field, direction in (("buckets_per_hit", LOWER),
                                 ("buckets_per_miss", LOWER)):
            if _num(cell.get(field)):
                out.append(Metric("%s.%s" % (key, field), cell[field],
                                  DETERMINISTIC, direction))
        if _num(cell.get("mops")):
            out.append(Metric("%s.mops" % key, cell["mops"], TIMING,
                              HIGHER))
        hw = cell.get("hw", {})
        if hw.get("valid") and _num(hw.get("llc_load_misses_per_lookup")):
            out.append(Metric("%s.hw.llc_load_misses_per_lookup" % key,
                              hw["llc_load_misses_per_lookup"], TIMING,
                              LOWER))
    return out


def extract_host_throughput(doc):
    out = []
    for name, ops in doc.get("ops_per_sec", {}).items():
        if _num(ops):
            out.append(Metric("ops_per_sec.%s" % name, ops, TIMING,
                              HIGHER))
    for name, ratio in doc.get("burst_speedup", {}).items():
        if _num(ratio):
            out.append(Metric("burst_speedup.%s" % name, ratio, TIMING,
                              HIGHER))
    for name, hw in doc.get("hw", {}).items():
        if hw.get("valid") and _num(hw.get("llc_load_misses_per_op")):
            out.append(Metric("hw.%s.llc_load_misses_per_op" % name,
                              hw["llc_load_misses_per_op"], TIMING,
                              LOWER))
    return out


def extract_multiworker(doc):
    out = []
    for run in doc.get("runs", []):
        key = "runs[workers=%s]" % run.get("workers")
        if _num(run.get("aggregate_cpu_pps")):
            out.append(Metric("%s.aggregate_cpu_pps" % key,
                              run["aggregate_cpu_pps"], TIMING, HIGHER))
        if _num(run.get("ring_full_drops")):
            out.append(Metric("%s.ring_full_drops" % key,
                              run["ring_full_drops"], TIMING, LOWER))
    return out


def extract_churn(doc):
    out = []
    if _num(doc.get("headline_speedup_10pct_churn")):
        out.append(Metric("headline_speedup_10pct_churn",
                          doc["headline_speedup_10pct_churn"], TIMING,
                          HIGHER))
    for run in doc.get("runs", []):
        key = "runs[%s,churn=%s]" % (run.get("mode"), run.get("churn"))
        if _num(run.get("aggregate_cpu_pps")):
            out.append(Metric("%s.aggregate_cpu_pps" % key,
                              run["aggregate_cpu_pps"], TIMING, HIGHER))
        if _num(run.get("upcall_drops")):
            out.append(Metric("%s.upcall_drops" % key,
                              run["upcall_drops"], TIMING, LOWER))
    return out


def extract_elastic(doc):
    out = []
    for top in ("headline_elastic_over_static",
                "uniform_elastic_over_static"):
        if _num(doc.get(top)):
            out.append(Metric(top, doc[top], TIMING, HIGHER))
    for run in doc.get("runs", []):
        key = "runs[%s,workers=%s,skew=%s]" % (
            run.get("mode"), run.get("workers"), run.get("zipf_skew"))
        # The drain-then-remap ordering invariant is deterministic:
        # migrations must never reorder a flow's packets. Committed
        # baselines gate it exactly even under --no-timing.
        # (gate_timeouts is deliberately NOT gated: it counts bounded
        # controller waits that expired under CPU oversubscription —
        # scheduling noise, not a correctness signal.)
        if _num(run.get("reorder_violations")):
            out.append(Metric("%s.reorder_violations" % key,
                              run["reorder_violations"], DETERMINISTIC,
                              LOWER))
        if _num(run.get("effective_pps")):
            out.append(Metric("%s.effective_pps" % key,
                              run["effective_pps"], TIMING, HIGHER))
    for pair in doc.get("pairs", []):
        key = "pairs[workers=%s,skew=%s]" % (pair.get("workers"),
                                             pair.get("zipf_skew"))
        if _num(pair.get("speedup")):
            out.append(Metric("%s.speedup" % key, pair["speedup"],
                              TIMING, HIGHER))
    return out


EXTRACTORS = {
    "cuckoo_miss_sweep": extract_cuckoo_miss_sweep,
    "host_throughput": extract_host_throughput,
    "multiworker_throughput": extract_multiworker,
    "churn_throughput": extract_churn,
    "elastic_throughput": extract_elastic,
}


def provenance_matches(base, cur):
    bm, cm = base.get("meta", {}), cur.get("meta", {})
    diffs = []
    for key in PROVENANCE_KEYS:
        if bm.get(key) != cm.get(key):
            diffs.append("%s: %r != %r" % (key, bm.get(key),
                                           cm.get(key)))
    return diffs


def compare(base_metrics, cur_metrics, args, out=sys.stdout,
            timing_ok=True):
    cur_by_name = {m.name: m for m in cur_metrics}
    regressions = 0
    missing = 0
    skipped_timing = 0
    for bm in base_metrics:
        if bm.kind == TIMING and not timing_ok:
            skipped_timing += 1
            continue
        cm = cur_by_name.get(bm.name)
        if cm is None:
            missing += 1
            print("MISSING  %s (in baseline, not in current)" % bm.name,
                  file=out)
            continue
        threshold = (args.threshold if bm.kind == DETERMINISTIC
                     else args.timing_threshold)
        if bm.value == 0:
            # No relative scale. Deterministic zeros must stay zero
            # (within threshold absolute); timing zeros are skipped.
            if bm.kind == DETERMINISTIC and bm.direction == LOWER and \
                    cm.value > threshold:
                print("REGRESS  %-60s %12.4f -> %12.4f" %
                      (bm.name, bm.value, cm.value), file=out)
                regressions += 1
            continue
        ratio = cm.value / bm.value
        if bm.direction == HIGHER:
            regressed = ratio < 1.0 - threshold
        else:
            regressed = ratio > 1.0 + threshold
        delta_pct = (ratio - 1.0) * 100.0
        if regressed:
            print("REGRESS  %-60s %12.4f -> %12.4f  (%+6.1f%%)" %
                  (bm.name, bm.value, cm.value, delta_pct), file=out)
            regressions += 1
        elif args.verbose:
            print("ok       %-60s %12.4f -> %12.4f  (%+6.1f%%)" %
                  (bm.name, bm.value, cm.value, delta_pct), file=out)
    if skipped_timing:
        print("note: %d timing metric(s) skipped (provenance mismatch "
              "or --no-timing)" % skipped_timing, file=out)
    if missing:
        print("note: %d metric(s) missing from current" % missing,
              file=out)
    if missing and args.strict_keys:
        return 1
    return 1 if regressions else 0


def run(argv, out=sys.stdout):
    parser = argparse.ArgumentParser(
        description="compare two BENCH_*.json files, gate regressions")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slack for deterministic metrics "
                             "(default 0.10)")
    parser.add_argument("--timing-threshold", type=float, default=None,
                        help="relative slack for timing metrics "
                             "(default: same as --threshold)")
    parser.add_argument("--force-timing", action="store_true",
                        help="compare timing metrics even when the "
                             "meta blocks disagree")
    parser.add_argument("--no-timing", action="store_true",
                        help="never compare timing metrics (committed "
                             "cross-host baselines gate deterministic "
                             "metrics only)")
    parser.add_argument("--strict-provenance", action="store_true",
                        help="exit 3 when the meta blocks disagree")
    parser.add_argument("--strict-keys", action="store_true",
                        help="fail when a baseline metric is missing "
                             "from current")
    parser.add_argument("--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    if args.timing_threshold is None:
        args.timing_threshold = args.threshold

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.current) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=out)
        return 2

    bench = base.get("benchmark")
    if bench != cur.get("benchmark"):
        print("error: benchmark mismatch: %r vs %r" %
              (bench, cur.get("benchmark")), file=out)
        return 2
    extractor = EXTRACTORS.get(bench)
    if extractor is None:
        print("note: no extractor for benchmark %r, nothing compared" %
              bench, file=out)
        return 0

    diffs = provenance_matches(base, cur)
    if diffs:
        for d in diffs:
            print("provenance: %s" % d, file=out)
        if args.strict_provenance:
            return 3
    timing_ok = (not diffs or args.force_timing) and not args.no_timing

    rc = compare(extractor(base), extractor(cur), args, out=out,
                 timing_ok=timing_ok)
    print("bench_diff: %s: %s" % (bench, "REGRESSED" if rc else "ok"),
          file=out)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
