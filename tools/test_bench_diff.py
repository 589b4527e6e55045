#!/usr/bin/env python3
"""Unit tests for bench_diff.py (run directly or via ctest)."""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402

META = {"git_sha": "abc123", "compiler": "g++ 13", "build_type":
        "Release", "cxx_flags": "-O2", "hostname": "ci-host"}


def sweep_doc(mops=20.0, buckets_per_miss=1.01, meta=META):
    return {
        "benchmark": "cuckoo_miss_sweep",
        "meta": dict(meta),
        "miss_speedup": 1.4,
        "cells": [{
            "mode": "cuckoopp", "occupancy": 0.75, "hit_ratio": 0.0,
            "mops": mops, "buckets_per_hit": 0.0,
            "buckets_per_miss": buckets_per_miss,
        }],
    }


class BenchDiffTest(unittest.TestCase):
    def _write(self, doc):
        f = tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, f.name)
        json.dump(doc, f)
        f.close()
        return f.name

    def _run(self, base, cur, *flags):
        out = io.StringIO()
        rc = bench_diff.run([self._write(base), self._write(cur),
                             *flags], out=out)
        return rc, out.getvalue()

    def test_improvement_passes(self):
        rc, out = self._run(sweep_doc(mops=20.0),
                            sweep_doc(mops=25.0))
        self.assertEqual(rc, 0, out)
        self.assertIn("ok", out)

    def test_timing_regression_fails(self):
        rc, out = self._run(sweep_doc(mops=20.0),
                            sweep_doc(mops=15.0))
        self.assertEqual(rc, 1, out)
        self.assertIn("REGRESS", out)
        self.assertIn("mops", out)

    def test_deterministic_regression_fails(self):
        rc, out = self._run(sweep_doc(buckets_per_miss=1.0),
                            sweep_doc(buckets_per_miss=1.5))
        self.assertEqual(rc, 1, out)
        self.assertIn("buckets_per_miss", out)

    def test_within_threshold_passes(self):
        rc, out = self._run(sweep_doc(mops=20.0),
                            sweep_doc(mops=19.0))  # -5% < 10% slack
        self.assertEqual(rc, 0, out)

    def test_missing_key_warns_by_default(self):
        cur = sweep_doc()
        del cur["cells"][0]["buckets_per_miss"]
        rc, out = self._run(sweep_doc(), cur)
        self.assertEqual(rc, 0, out)
        self.assertIn("MISSING", out)

    def test_missing_key_fails_strict(self):
        cur = sweep_doc()
        del cur["cells"][0]["buckets_per_miss"]
        rc, out = self._run(sweep_doc(), cur, "--strict-keys")
        self.assertEqual(rc, 1, out)

    def test_removed_filter_metrics_are_not_compared(self):
        # Baselines from the four-mode sweep still carry the EMOMA
        # ratios and filter-line counts; the extractor ignores them,
        # so even --strict-keys passes against an on/off sweep.
        base = sweep_doc()
        base["hit_throughput_ratio_emoma"] = 0.85
        base["hit_throughput_ratio_both"] = 0.78
        base["cells"][0]["filter_lines_per_lookup"] = 0.0
        rc, out = self._run(base, sweep_doc(), "--strict-keys")
        self.assertEqual(rc, 0, out)
        self.assertNotIn("MISSING", out)

    def test_provenance_mismatch_skips_timing(self):
        other = dict(META, hostname="laptop")
        # Timing regressed badly, but the hosts differ — by default the
        # timing comparison is skipped, deterministic still gates.
        rc, out = self._run(sweep_doc(mops=20.0),
                            sweep_doc(mops=5.0, meta=other))
        self.assertEqual(rc, 0, out)
        self.assertIn("provenance", out)
        self.assertIn("skipped", out)

    def test_provenance_mismatch_strict_exits_3(self):
        other = dict(META, hostname="laptop")
        rc, out = self._run(sweep_doc(), sweep_doc(meta=other),
                            "--strict-provenance")
        self.assertEqual(rc, 3, out)

    def test_force_timing_compares_despite_mismatch(self):
        other = dict(META, hostname="laptop")
        rc, out = self._run(sweep_doc(mops=20.0),
                            sweep_doc(mops=5.0, meta=other),
                            "--force-timing")
        self.assertEqual(rc, 1, out)

    def test_no_timing_ignores_same_host_noise(self):
        # Same provenance, timing regressed: --no-timing still passes
        # (deterministic metrics keep gating).
        rc, out = self._run(sweep_doc(mops=20.0),
                            sweep_doc(mops=5.0), "--no-timing")
        self.assertEqual(rc, 0, out)
        rc, out = self._run(sweep_doc(buckets_per_miss=1.0),
                            sweep_doc(buckets_per_miss=1.5,
                                      mops=5.0), "--no-timing")
        self.assertEqual(rc, 1, out)

    def test_deterministic_gates_across_hosts(self):
        other = dict(META, hostname="laptop")
        rc, out = self._run(
            sweep_doc(buckets_per_miss=1.0),
            sweep_doc(buckets_per_miss=1.5, meta=other))
        self.assertEqual(rc, 1, out)

    def test_benchmark_mismatch_is_usage_error(self):
        host = {"benchmark": "host_throughput", "meta": dict(META),
                "ops_per_sec": {"cuckoo_lookup": 1e6}}
        rc, out = self._run(sweep_doc(), host)
        self.assertEqual(rc, 2, out)

    def test_host_throughput_extractor(self):
        base = {"benchmark": "host_throughput", "meta": dict(META),
                "ops_per_sec": {"cuckoo_lookup": 1000000.0},
                "burst_speedup": {"cuckoo": 1.2}}
        cur = json.loads(json.dumps(base))
        cur["ops_per_sec"]["cuckoo_lookup"] = 800000.0  # -20%
        rc, out = self._run(base, cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("cuckoo_lookup", out)

    def test_flowscale_extractor(self):
        base = {"benchmark": "flowscale_throughput",
                "meta": dict(META),
                "headline_adaptive_over_fixed": 1.2,
                "runs": [{"flows": 1000000, "zipf_skew": 0.5,
                          "policy": "adaptive",
                          "stream_distinct_flows": 381000,
                          "ref_rel_error": 0.001,
                          "aggregate_cpu_pps": 70000.0}]}
        # The deterministic replay gates across hosts / under
        # --no-timing; cpu-pps does not.
        cur = json.loads(json.dumps(base))
        cur["runs"][0]["aggregate_cpu_pps"] = 100.0
        rc, out = self._run(base, cur, "--no-timing")
        self.assertEqual(rc, 0, out)
        cur["runs"][0]["stream_distinct_flows"] = 300000
        rc, out = self._run(base, cur, "--no-timing")
        self.assertEqual(rc, 1, out)
        self.assertIn("stream_distinct_flows", out)

    def test_elastic_extractor(self):
        base = {"benchmark": "elastic_throughput",
                "meta": dict(META),
                "headline_elastic_over_static": 1.6,
                "uniform_elastic_over_static": 1.0,
                "runs": [{"mode": "elastic", "workers": 4,
                          "zipf_skew": 1.3,
                          "effective_pps": 70000.0,
                          "reorder_violations": 0,
                          "gate_timeouts": 0}],
                "pairs": [{"workers": 4, "zipf_skew": 1.3,
                           "speedup": 1.6}]}
        # Ordering invariants gate even across hosts / --no-timing;
        # effective pps and speedups do not.
        cur = json.loads(json.dumps(base))
        cur["runs"][0]["effective_pps"] = 100.0
        cur["pairs"][0]["speedup"] = 0.5
        rc, out = self._run(base, cur, "--no-timing")
        self.assertEqual(rc, 0, out)
        cur["runs"][0]["reorder_violations"] = 3
        rc, out = self._run(base, cur, "--no-timing")
        self.assertEqual(rc, 1, out)
        self.assertIn("reorder_violations", out)

    def test_unknown_benchmark_is_noop(self):
        doc = {"benchmark": "mystery", "meta": dict(META)}
        rc, out = self._run(doc, doc)
        self.assertEqual(rc, 0, out)
        self.assertIn("no extractor", out)


if __name__ == "__main__":
    unittest.main()
