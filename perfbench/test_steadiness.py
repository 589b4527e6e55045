"""Tests of the steadiness report's summary and seed parsing."""

import statistics
import unittest

from steadiness import parse_seeds, summarize


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
        s = summarize(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["median"], 4.0)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertEqual((s["min"], s["max"]), (1.0, 10.0))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / 4.0)
        self.assertEqual(s["n"], 7)

    def test_single_value_has_no_spread(self):
        s = summarize([2.5])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.5, 2.5, 2.5))
        self.assertEqual(s["spread"], 0.0)

    def test_zero_median_reports_zero_spread(self):
        self.assertEqual(summarize([0.0, 0.0, 0.0])["spread"], 0.0)


class ParseSeedsTest(unittest.TestCase):
    def test_ranges_and_singles(self):
        self.assertEqual(parse_seeds("1-3,7"), [1, 2, 3, 7])
        self.assertEqual(parse_seeds("5"), [5])


if __name__ == "__main__":
    unittest.main()
