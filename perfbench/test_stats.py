"""Tests for the benchmark's own statistics and output format.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

PERFBENCH_SMOKE=1 additionally builds the benchmark and runs every workload
at its tiny smoke size (a few minutes on first build).
"""

import json
import os
import random
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

REPO = os.path.dirname(HERE)


def fake_raw(workload, n=200, trace=False):
    """A plausible raw workload result with n latency samples."""
    rng = random.Random(7)
    raw = {
        "workload": workload,
        "attempted": n,
        "failed": 0,
        "errors": "",
        "setup_s": [0.001 + rng.random() * 1e-4 for _ in range(9)],
        "lat_us": [30 + rng.random() * 10 for _ in range(n)],
        "ack_us": [3 + rng.random() for _ in range(n)],
        "throughput": [3e5 + rng.random() * 1e4 for _ in range(6)],
        "cpu_us": [7000.0, 7500.0, 8000.0],
        "peak_rss_kb": 20480,
    }
    if trace:
        raw["layers"] = {
            "core.dispatch_us": 1.7,
            "core.dispatches_per_msg": 3.0,
            "core.inject_us": [1 + rng.random() for _ in range(n)],
            "gateway.outputs_get_us": [50.0] * 5,
        }
    return raw


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(20))
        self.assertIsNone(stats.tail_percentile(99))
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)
        self.assertEqual(stats.tail_percentile(10 ** 7), 99.99)

    def test_reported_tail_has_ten_samples_beyond(self):
        for n in (100, 150, 1000, 4321, 20000):
            values = list(range(n))
            s = stats.summarize(values)
            beyond = sum(1 for v in values if v > s["tail"])
            self.assertGreaterEqual(beyond, stats.TAIL_MIN_BEYOND - 1, n)
            self.assertEqual(s["n"], n)

    def test_too_few_samples_report_no_tail(self):
        s = stats.summarize([1.0, 2.0, 3.0])
        self.assertEqual(s["p50"], 2.0)
        self.assertNotIn("tail", s)
        self.assertEqual(stats.summarize([]), {"n": 0})

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 99), 99)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.summarize([5, 1, 3])["p50"], 3)
        self.assertEqual(stats.summarize([4, 1, 3, 2])["p50"], 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        rng = random.Random(3)
        for n in (2, 3, 10, 11, 57):
            values = [rng.random() for _ in range(n)]
            q1, q2, q3 = stats.quartiles(values)
            want = statistics.quantiles(values, n=4)
            self.assertEqual((q1, q2, q3), tuple(want))

    def test_spread_is_iqr_over_median(self):
        values = [90, 95, 100, 105, 110, 100, 100, 98, 102, 101]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([7.0] * 10), 0.0)

    def test_single_value_quartiles(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))


class OutputFormat(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_tables_match_benchmark_json(self):
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in self.bench["end_to_end"]}
        layer = {m["name"]: (m["unit"], m["better"])
                 for m in self.bench["per_layer"]}
        self.assertEqual(e2e, stats.END_TO_END)
        self.assertEqual(layer, stats.PER_LAYER)
        self.assertEqual(e2e["setup_s"], ("s", "lower"))
        self.assertEqual(
            {w["name"] for w in self.bench["workloads"]},
            {"chain-hop", "fanin-2node", "restart-replay"})

    def test_untraced_result_line_has_every_e2e_metric(self):
        for workload in ("chain-hop", "fanin-2node", "restart-replay"):
            raw = fake_raw(workload)
            metrics = stats.end_to_end(raw)
            line = stats.result_line(True, raw["attempted"], 0, metrics,
                                     stats.END_TO_END)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertEqual(set(line["metrics"]), set(stats.END_TO_END))
            for name, m in line["metrics"].items():
                self.assertEqual(m["unit"], stats.END_TO_END[name][0])
                self.assertGreater(m["value"], 0, name)
            json.dumps(line)  # serializable

    def test_end_to_end_values(self):
        raw = fake_raw("chain-hop")
        m = stats.end_to_end(raw)
        self.assertEqual(m["lat_p50_us"], statistics.median(raw["lat_us"]))
        self.assertEqual(m["setup_s"], statistics.median(raw["setup_s"]))
        self.assertEqual(m["cpu_us_per_msg"], 7500.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 20.0)

    def test_traced_result_has_every_layer_metric(self):
        untraced = fake_raw("chain-hop")
        traced = fake_raw("chain-hop", trace=True)
        traced["lat_us"] = [v * 1.1 for v in traced["lat_us"]]
        metrics, table = stats.per_layer(untraced, traced)
        self.assertEqual(set(metrics), set(stats.PER_LAYER))
        self.assertAlmostEqual(metrics["trace.overhead_pct"], 10.0, places=6)
        self.assertEqual(metrics["core.dispatch_us"], 1.7)
        self.assertEqual(metrics["durability.covered_records"], 0.0)
        self.assertEqual(metrics["ingress.ack_p50_us"],
                         statistics.median(untraced["ack_us"]))
        self.assertIn("core.hop_us", table)
        self.assertEqual(table["gateway.outputs_get_us"]["n"], 5)
        line = stats.result_line(True, 1, 0, metrics, stats.PER_LAYER)
        self.assertEqual(set(line["metrics"]), set(stats.PER_LAYER))

    def test_missing_samples_are_an_error(self):
        raw = fake_raw("fanin-2node")
        raw["lat_us"] = []
        with self.assertRaises(ValueError):
            stats.end_to_end(raw)


@unittest.skipUnless(os.environ.get("PERFBENCH_SMOKE") == "1",
                     "set PERFBENCH_SMOKE=1 to build and run the smoke sizes")
class Smoke(unittest.TestCase):
    def run_workload(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "2", "--trace",
             str(trace), "--smoke"],
            cwd=REPO, stdout=subprocess.PIPE, timeout=1200, check=True,
            text=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        self.assertTrue(line["correct"], out)
        self.assertEqual(line["failed"], 0)
        want = stats.PER_LAYER if trace else stats.END_TO_END
        self.assertEqual(set(line["metrics"]), set(want))

    def test_chain_hop(self):
        self.run_workload("chain-hop", 0)
        self.run_workload("chain-hop", 1)

    def test_fanin_2node(self):
        self.run_workload("fanin-2node", 0)
        self.run_workload("fanin-2node", 1)

    def test_restart_replay(self):
        self.run_workload("restart-replay", 0)
        self.run_workload("restart-replay", 1)


if __name__ == "__main__":
    unittest.main()
