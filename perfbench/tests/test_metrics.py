"""Self-tests of the benchmark's own arithmetic (perfbench/metrics.py).

Run with: python3 -m unittest discover -s perfbench/tests
(perfbench/run.py runs them before every benchmark run).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics  # noqa: E402


class TailTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = metrics.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_no_higher_sample_has_ten_beyond(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0,
                  12.0, 0.5, 13.0, 14.0]
        value, _, _ = metrics.tail(values)
        beyond = sum(1 for v in values if v > value)
        self.assertEqual(beyond, 10)
        higher = sorted(v for v in values if v > value)[0]
        self.assertLess(sum(1 for v in values if v > higher), 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(40)]
        self.assertEqual(metrics.tail(values), metrics.tail(values[::-1]))

    def test_eleven_samples_gives_minimum(self):
        values = [3.0] + [10.0 + i for i in range(10)]
        value, pct, n = metrics.tail(values)
        self.assertEqual(value, 3.0)
        self.assertEqual(n, 11)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_falls_back_to_maximum(self):
        self.assertEqual(metrics.tail([1.0, 4.0, 2.0]), (4.0, 100.0, 3))
        self.assertEqual(metrics.tail([]), (0.0, 0.0, 0))


class FailureShareTest(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(metrics.error_rate(200, 0), 0.0)
        self.assertAlmostEqual(metrics.error_rate(200, 3), 0.015)
        self.assertEqual(metrics.error_rate(7, 7), 1.0)

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(metrics.error_rate(0, 0), 1.0)

    def test_mismatches_count_in_failed(self):
        raw = {
            "cycles": [], "totals": {}, "inputs": {},
            "attempted": 10, "failed": 2, "mismatches": 2,
        }
        self.assertAlmostEqual(metrics.workload_extras(raw)["error_rate"], 0.2)


class SelfTimeTest(unittest.TestCase):
    def test_span_minus_covered_children(self):
        spans = [
            ["request", -1, 0, 100],
            ["fd.build", 0, 10, 30],
            ["fd.run", 0, 40, 90],
            ["fd.enumerate", 2, 45, 70],
            ["fd.subsume", 2, 70, 85],
        ]
        self.assertEqual(metrics.self_times(spans), [30, 20, 10, 25, 15])

    def test_overlapping_children_count_once(self):
        spans = [
            ["request", -1, 0, 100],
            ["a", 0, 10, 50],
            ["b", 0, 30, 60],
        ]
        self.assertEqual(metrics.self_times(spans)[0], 50)

    def test_child_outside_parent_is_clipped(self):
        spans = [["p", -1, 10, 20], ["c", 0, 15, 40]]
        self.assertEqual(metrics.self_times(spans)[0], 5)

    def test_grandchildren_do_not_double_subtract(self):
        spans = [
            ["request", -1, 0, 100],
            ["core.rewrite_tables", 0, 0, 60],
            ["core.match", 1, 0, 40],
            ["core.rewrite", 1, 40, 55],
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs, [40, 5, 40, 15])
        self.assertEqual(sum(selfs), 100)

    def test_layer_totals_inside_request_only(self):
        spans = [
            ["cycle", -1, 0, 100],
            ["table.csv_parse", 0, 0, 10],
            ["request", 0, 10, 100],
            ["discovery.query", 2, 10, 20],
            ["fd.run", 2, 20, 80],
            ["fd.enumerate", 4, 20, 60],
        ]
        everywhere = metrics.layer_self_ns(spans)
        self.assertEqual(everywhere["table.csv_parse"], 10)
        inside = metrics.layer_self_ns(spans, within="request")
        self.assertNotIn("table.csv_parse", inside)
        self.assertEqual(inside, {"discovery.query": 10, "fd.run": 20,
                                  "fd.enumerate": 40})

    def test_repeated_layer_spans_are_summed(self):
        spans = [
            ["cycle", -1, 0, 50],
            ["discovery.sketch", 0, 0, 5],
            ["discovery.sketch", 0, 10, 17],
        ]
        self.assertEqual(metrics.layer_self_ns(spans)["discovery.sketch"], 12)


class EndToEndTest(unittest.TestCase):
    def raw(self, request_ms):
        return {
            "setup_s": [0.3, 0.1, 0.2],
            "cycles": [{"request_ms": v} for v in request_ms],
            "peak_rss_mb": 12.5,
        }

    def test_request_latency_is_the_mean(self):
        values = metrics.end_to_end(self.raw([10.0, 10.0, 10.0, 30.0]))
        self.assertAlmostEqual(values["request_mean_ms"], 15.0)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 12.5)

    def test_mean_follows_the_share_of_slow_requests(self):
        # Two speed modes: the median jumps from one to the other as the
        # slow share crosses one half, the mean moves in proportion.
        fast, slow = 100.0, 140.0
        below = metrics.end_to_end(self.raw([fast] * 11 + [slow] * 9))
        above = metrics.end_to_end(self.raw([fast] * 9 + [slow] * 11))
        self.assertAlmostEqual(below["request_mean_ms"], 118.0)
        self.assertAlmostEqual(above["request_mean_ms"], 122.0)
        self.assertEqual(metrics.median([fast] * 11 + [slow] * 9), fast)
        self.assertEqual(metrics.median([fast] * 9 + [slow] * 11), slow)

    def test_no_requests_give_zero(self):
        self.assertEqual(metrics.end_to_end(self.raw([]))["request_mean_ms"], 0.0)


if __name__ == "__main__":
    unittest.main()
