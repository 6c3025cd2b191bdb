"""Self-tests of the benchmark's statistics, trace reconciliation and its
BENCHMARK.json. Run with `python3 sortbench/selftest.py`."""

import json
import math
import os
import re
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import stats  # noqa: E402


class MedianAndSpread(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7.5]), 7.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.91, 1.02, 0.97, 1.10, 0.95, 1.00, 1.05, 0.99, 1.01, 0.93]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0))

    def test_iqr_share(self):
        values = list(range(1, 11))  # quartiles 2.75 and 8.25, median 5.5
        self.assertAlmostEqual(stats.iqr_share(values), 5.5 / 5.5)
        self.assertEqual(stats.iqr_share([3.0] * 10), 0.0)
        self.assertEqual(stats.iqr_share([0.0, 0.0, 0.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_p99_with_exactly_ten_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        value, q_used = stats.tail_percentile(values, 0.99)
        self.assertEqual((value, q_used), (990, 0.99))
        self.assertEqual(stats.beyond(values, value), 10)

    def test_too_few_samples_lowers_the_percentile(self):
        values = list(range(1, 501))
        value, q_used = stats.tail_percentile(values, 0.99)
        self.assertEqual(q_used, 490 / 500)
        self.assertEqual(stats.beyond(values, value), 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(2000, 0, -1)]
        self.assertEqual(stats.tail_percentile(values, 0.99)[0], 1980.0)

    def test_needs_eleven_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(10)), 0.99)
        self.assertEqual(stats.tail_percentile(list(range(11)), 0.99),
                         (0, 1 / 11))

    def test_failed_requests_count_as_over_any_limit(self):
        values = [1.0] * 990 + [math.inf] * 10
        self.assertEqual(stats.tail_percentile(values, 0.99)[0], 1.0)
        values = [1.0] * 989 + [math.inf] * 11
        self.assertEqual(stats.tail_percentile(values, 0.99)[0], math.inf)


def _span(name, ts, dur, sid, parent, op=1):
    return {"name": name, "ph": "X", "pid": op, "tid": 1, "ts": ts,
            "dur": dur, "args": {"id": sid, "parent": parent, "op": op}}


class Reconcile(unittest.TestCase):
    def test_unattributed_and_self_time(self):
        events = [
            _span("sort", 0, 100, 1, 0),
            _span("sink", 5, 40, 2, 1),
            _span("sink.call", 5, 30, 5, 2),
            _span("sink.call", 20, 20, 6, 2),  # overlaps the first call
            _span("merge", 45, 30, 3, 1),
            _span("scan", 80, 15, 4, 1),
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump({"traceEvents": events}, f)
        try:
            unattributed, self_s, overlap = run.reconcile(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(len(unattributed), 1)
        self.assertAlmostEqual(unattributed[0], 15e-6)  # 100 - 40 - 30 - 15
        self.assertAlmostEqual(self_s["sort"], 15e-6)
        self.assertAlmostEqual(self_s["sink"], 5e-6)    # 40 - union(5..40)
        self.assertAlmostEqual(self_s["sink.call"], 50e-6)
        self.assertLessEqual(overlap, 0)


class BenchmarkJson(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_file_matches_the_script(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            self.assertEqual(json.load(f), run.benchmark_json())

    def test_contract_limits(self):
        spec = run.benchmark_json()
        names = [w["name"] for w in spec["workloads"]] + \
            [m["name"] for m in spec["end_to_end"]] + \
            [m["name"] for m in spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(all(len(w["why"]) <= 200 for w in spec["workloads"]))

    def test_every_layer_names_what_it_moves(self):
        for name, (_, _, moves) in run.PER_LAYER.items():
            self.assertTrue(moves, name)


if __name__ == "__main__":
    unittest.main()
