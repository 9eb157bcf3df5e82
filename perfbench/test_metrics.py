"""Unit tests for the benchmark's metric reductions (metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics
import run

HERE = os.path.dirname(os.path.abspath(__file__))

SPANS = ("bench.query", "topk.run", "topk.whatif", "topk.stage.baseline",
         "topk.stage.sweep_graph", "topk.stage.candidate", "topk.stage.prune",
         "topk.stage.evaluate", "topk.victim", "noise.fixpoint", "noise.filter")
COUNTERS = ("topk.sets_generated", "topk.surviving_sets",
            "topk.dominance_pruned", "topk.beam_capped",
            "dominance.exact_checks", "dominance.sig_rejects",
            "pwl.merge_points", "noise.filter_false_sides",
            "noise.envelope_cache_hits", "noise.envelope_cache_misses",
            "sta.runs", "topk.baseline_refresh_region", "topk.whatif_runs",
            "server.result_cache_hits", "server.result_cache_misses",
            "server.session_rebuilds", "server.session_rebases",
            "server.replayed_edits", "server.coalesced_reads")
HISTS = ("server.queue_wait_s", "server.latency.topk_s",
         "server.latency.whatif_s")


def interval(**overrides):
    """One traced interval as e2e_bench records it, all readings 1.0."""
    x = {f"span.{s}": 0.0 for s in SPANS}
    x.update({f"counter.{c}": 1.0 for c in COUNTERS})
    for h in HISTS:
        x[f"hist.{h}.sum"] = 0.0
        x[f"hist.{h}.count"] = 0.0
    x.update({"lanes.exec_s": 3.0, "lanes.exec_cpu_s": 2.5,
              "lanes.queue_idle_s": 0.5, "lanes.barrier_wait_s": 0.5,
              "lanes.tasks": 100.0, "lanes.steals": 10.0,
              "gauge.server.snapshot_bytes_shared": 0.0,
              "mem.envelope_cache_bytes": 1024.0, "cpu_s": 3.0,
              "wall_s": 1.0})
    x.update(overrides)
    return x


STANDALONE = {"sta_run_s": [0.01, 0.02, 0.03], "fixpoint_s": [0.5, 0.4, 0.6],
              "fixpoint_iterations": 5, "snapshot_apply_ms": [0.1, 0.2]}


def cold_raw(trace=False):
    queries = []
    for rnd in range(2):
        for c in range(2):
            traced = trace and (rnd + c) % 2 == 1
            q = {"circuit": c, "traced": traced,
                 "wall_s": (1.0 + c) * (1.1 if traced else 1.0),
                 "cpu_s": 4.0 * (1 + c)}
            if traced:
                q["layers"] = interval(**{
                    "span.bench.query": q["wall_s"],
                    "span.topk.stage.baseline": 0.1,
                    "span.topk.stage.sweep_graph": 0.7,
                    "span.topk.stage.evaluate": 0.1})
            queries.append(q)
    raw = {"setup_s": [1e-6, 2e-6, 3e-6], "peak_rss_mib": 40.0,
           "queries": queries,
           "noise": [{"mode": "elimination", "baseline": 10.0,
                      "reference": 6.0, "evaluated": 8.0},
                     {"mode": "elimination", "baseline": 10.0,
                      "reference": 6.0, "evaluated": 7.0}]}
    if trace:
        raw["standalone"] = STANDALONE
    return raw


def serve_raw(trace=False):
    episodes = []
    for n in range(4):
        episodes.append({"traced": trace and n % 2 == 1, "wall_s": 2.0,
                         "cpu_s": 3.0,
                         "read_s": [0.05 + 0.001 * i for i in range(60)],
                         "commit_s": [0.02 + 0.001 * i for i in range(60)]})
    raw = {"setup_s": [2e-4, 3e-4], "peak_rss_mib": 60.0,
           "episodes": episodes,
           "noise": [{"mode": "elimination", "baseline": 1.2,
                      "reference": 1.0, "evaluated": 1.1},
                     {"mode": "addition", "baseline": 1.0,
                      "reference": 1.2, "evaluated": 1.15}]}
    if trace:
        raw["standalone"] = STANDALONE
        raw["whatif_ms"] = [5.0, 6.0, 7.0]
        raw["traced_episodes"] = [interval(**{
            "span.topk.run": 1.0, "span.topk.whatif": 0.5,
            "span.topk.stage.baseline": 0.3, "span.topk.stage.candidate": 0.4,
            "span.topk.stage.prune": 0.2, "span.topk.stage.evaluate": 0.2,
            "hist.server.queue_wait_s.sum": 0.5,
            "hist.server.queue_wait_s.count": 100.0,
            "hist.server.latency.topk_s.sum": 2.0,
            "hist.server.latency.topk_s.count": 50.0,
            "hist.server.latency.whatif_s.sum": 1.0,
            "hist.server.latency.whatif_s.count": 50.0,
            "client.latency_sum_s": 4.0, "client.requests": 100.0})]
    return raw


class TailPercentile(unittest.TestCase):
    def test_ten_beyond_is_enough(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.tail_percentile(samples, 0.9), 90)
        self.assertEqual(metrics.tail_percentile(list(reversed(samples)), 0.5),
                         50)

    def test_fewer_than_ten_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(99)), 0.9)
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(5)), 0.5)

    def test_quantile_range(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(1000)), 1.0)


class NoiseShare(unittest.TestCase):
    def test_addition(self):
        # noiseless 10, all-aggressor 14: a set reaching 13 explains 3/4.
        self.assertAlmostEqual(
            metrics.noise_share("addition", 10.0, 14.0, 13.0), 0.75)

    def test_elimination(self):
        # all-aggressor 14, noiseless 10: removing a set down to 11 explains
        # 3/4 of the noise.
        self.assertAlmostEqual(
            metrics.noise_share("elimination", 14.0, 10.0, 11.0), 0.75)

    def test_no_noise_or_bad_mode(self):
        with self.assertRaises(ValueError):
            metrics.noise_share("addition", 10.0, 10.0, 10.0)
        with self.assertRaises(ValueError):
            metrics.noise_share("both", 10.0, 14.0, 12.0)


class FailedShare(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(metrics.failed_share(16, 0), 0.0)
        self.assertAlmostEqual(metrics.failed_share(400, 3), 0.0075)
        self.assertEqual(metrics.failed_share(0, 0), 1.0)
        with self.assertRaises(ValueError):
            metrics.failed_share(2, 3)


class Unattributed(unittest.TestCase):
    def test_residual_closes_the_wall(self):
        stages = [0.25, 1.5, 0.125]
        rest = metrics.unattributed(2.0, stages)
        self.assertGreaterEqual(rest, 0.0)
        self.assertAlmostEqual(sum(stages) + rest, 2.0)

    def test_never_negative(self):
        self.assertEqual(metrics.unattributed(1.0, [0.6, 0.5]), 0.0)
        with self.assertRaises(ValueError):
            metrics.unattributed(1.0, [-0.1])

    def test_cold_interval(self):
        layers = metrics.per_layer(cold_raw(trace=True))
        # Traced walls 2.2 (circuit 1, round 0) and 1.1 (circuit 0, round
        # 1) minus 0.9 s of named stages; the metric is their median.
        self.assertAlmostEqual(layers["topk.unattributed_s"],
                               ((2.2 - 0.9) + (1.1 - 0.9)) / 2)


class Reductions(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def names(self, key):
        return {m["name"] for m in self.spec[key]}

    def test_every_end_to_end_metric_on_every_workload(self):
        for raw in (cold_raw(), serve_raw()):
            values = metrics.end_to_end(raw)
            self.assertEqual(set(values), self.names("end_to_end"))
            self.assertTrue(all(v > 0 for v in values.values()), values)
        self.assertEqual(set(run.END_TO_END_UNITS), self.names("end_to_end"))
        for m in self.spec["end_to_end"]:
            self.assertEqual(run.END_TO_END_UNITS[m["name"]], m["unit"])

    def test_every_per_layer_metric_on_every_workload(self):
        for raw in (cold_raw(trace=True), serve_raw(trace=True)):
            self.assertEqual(set(metrics.per_layer(raw)),
                             self.names("per_layer"))
        for m in self.spec["per_layer"]:
            self.assertEqual(run.per_layer_unit(m["name"]), m["unit"],
                             m["name"])

    def test_cold_values(self):
        e2e = metrics.end_to_end(cold_raw())
        self.assertAlmostEqual(e2e["query_s"], 1.5)  # mean of 1.0 and 2.0
        self.assertAlmostEqual(e2e["cpu_s_per_op"], 6.0)
        self.assertAlmostEqual(e2e["served_rps"], 4 / 6.0)
        self.assertAlmostEqual(e2e["noise_share"], 0.625)  # (0.5 + 0.75)/2
        self.assertAlmostEqual(e2e["setup_s"], 2e-6)
        layers = metrics.per_layer(cold_raw(trace=True))
        self.assertAlmostEqual(layers["trace.overhead_share"], 0.1)
        self.assertEqual(layers["client.read_p90_ms"], 0.0)

    def test_serve_values(self):
        e2e = metrics.end_to_end(serve_raw())
        self.assertAlmostEqual(e2e["served_rps"], 60.0)  # 120 per 2 s
        self.assertAlmostEqual(e2e["cpu_s_per_op"], 3.0 / 120)
        self.assertAlmostEqual(e2e["noise_share"], 0.625)
        layers = metrics.per_layer(serve_raw(trace=True))
        self.assertAlmostEqual(layers["server.queue_wait_ms"], 5.0)
        self.assertAlmostEqual(layers["server.exec_topk_ms"], 40.0)
        # 4 s of client latency over 100 requests, less 3.5 s in the server.
        self.assertAlmostEqual(layers["server.transport_ms"], 5.0)
        # 3 s of shard execution, 1.1 s of it in named stages.
        self.assertAlmostEqual(layers["topk.unattributed_s"], 1.9)
        self.assertAlmostEqual(layers["session.whatif_ms"], 6.0)
        # 60 reads per untraced episode, two untraced episodes.
        self.assertAlmostEqual(layers["client.read_p90_ms"], 103.0)


if __name__ == "__main__":
    unittest.main()
