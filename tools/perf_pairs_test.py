#!/usr/bin/env python3
"""Unit tests for the statistics of tools/perf_pairs.py (stdlib only).

Covers the quartile convention, the win count in both metric directions,
the claim rule (>= 90% wins and a median gain beyond the parent's
quartile distance) and the parsing of a perfbench run's output.

Run:  python3 -m unittest tools/perf_pairs_test.py
(Also run by the CI lint job.)
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(perf_pairs.quantile(values, 0.0), 1.0)
        self.assertEqual(perf_pairs.quantile(values, 1.0), 4.0)
        self.assertAlmostEqual(perf_pairs.quantile(values, 0.5), 2.5)
        self.assertAlmostEqual(perf_pairs.quantile(values, 0.25), 1.75)
        self.assertAlmostEqual(perf_pairs.quantile(values, 0.75), 3.25)

    def test_single_value_is_every_quantile(self):
        self.assertEqual(perf_pairs.summary([7.0]), (7.0, 7.0, 7.0))

    def test_summary_of_odd_count(self):
        self.assertEqual(perf_pairs.summary([5, 1, 3, 2, 4]), (2, 3, 4))


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_claimed(self):
        pairs = [(100 + i, 130 + i) for i in range(10)]
        v = perf_pairs.verdict(pairs, "higher")
        self.assertEqual(v["wins"], 10)
        self.assertEqual(v["pairs"], 10)
        self.assertAlmostEqual(v["gain"], 30.0)
        self.assertAlmostEqual(v["parent_iqr"], 4.5)
        self.assertTrue(v["claimed"])

    def test_eight_of_ten_wins_is_not_enough(self):
        pairs = [(100, 150)] * 8 + [(100, 90)] * 2
        v = perf_pairs.verdict(pairs, "higher")
        self.assertEqual(v["wins"], 8)
        self.assertFalse(v["claimed"])

    def test_nine_of_ten_wins_with_gain_beyond_spread(self):
        pairs = [(100, 150)] * 9 + [(100, 90)]
        self.assertTrue(perf_pairs.verdict(pairs, "higher")["claimed"])

    def test_gain_inside_parent_spread_is_not_claimed(self):
        # Every pair wins, but by less than the parent's quartile distance.
        parents = [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]
        pairs = [(p, p + 5) for p in parents]
        v = perf_pairs.verdict(pairs, "higher")
        self.assertEqual(v["wins"], 10)
        self.assertAlmostEqual(v["parent_iqr"], 20.0)
        self.assertFalse(v["claimed"])

    def test_lower_is_better_direction(self):
        pairs = [(10.0, 8.0)] * 10
        v = perf_pairs.verdict(pairs, "lower")
        self.assertEqual(v["wins"], 10)
        self.assertAlmostEqual(v["gain"], 2.0)
        self.assertTrue(v["claimed"])
        self.assertEqual(perf_pairs.verdict(pairs, "higher")["wins"], 0)

    def test_ties_are_not_wins(self):
        v = perf_pairs.verdict([(5.0, 5.0)] * 10, "higher")
        self.assertEqual(v["wins"], 0)
        self.assertFalse(v["claimed"])


class ParseRunTest(unittest.TestCase):
    def test_reads_host_and_last_line_json(self):
        out = ("repeat 1: setup 0.1 s\n"
               "host: nproc=4 cpu=\"x\" compiler=\"gcc\" build=Release\n"
               "note: 5 repeats\n"
               "{\"correct\": true, \"metrics\": "
               "{\"tx_per_s\": {\"value\": 12.5, \"unit\": \"tx/s\"}}}\n")
        host, result = perf_pairs.parse_run(out)
        self.assertTrue(host.startswith("host: nproc=4"))
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["tx_per_s"]["value"], 12.5)

    def test_missing_host_line_is_none(self):
        host, _ = perf_pairs.parse_run("{\"correct\": false}\n")
        self.assertIsNone(host)


class MetricDirectionTest(unittest.TestCase):
    def test_reads_benchmark_json(self):
        self.assertEqual(perf_pairs.metric_direction("tx_per_s"), "higher")
        self.assertEqual(perf_pairs.metric_direction("setup_s"), "lower")
        self.assertIsNone(perf_pairs.metric_direction("no_such_metric"))
        # Per-layer metrics need a traced run, which the tool never makes.
        self.assertIsNone(
            perf_pairs.metric_direction("participant.ns_per_finish"))


if __name__ == "__main__":
    unittest.main()
