"""Tests of the benchmark's own logic (no daemon, no timing).

Run:  python3 -m pytest perfbench   (or python3 -m unittest discover perfbench)
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import statistics
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import stats  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.daemon import Checker  # noqa: E402


def first_requests(workload: wl.Workload, seed: int, n: int):
    return list(itertools.islice(wl.request_stream(workload, seed), n))


class RequestListTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        for workload in wl.WORKLOADS.values():
            self.assertEqual(first_requests(workload, 7, 300),
                             first_requests(workload, 7, 300))

    def test_other_seed_other_list(self):
        for workload in wl.WORKLOADS.values():
            self.assertNotEqual(first_requests(workload, 7, 300),
                                first_requests(workload, 8, 300))

    def test_rounds_carry_the_whole_mix(self):
        for workload in wl.WORKLOADS.values():
            size = len(workload.nfs)
            requests = first_requests(workload, 3, 6 * size)
            for start in range(0, len(requests), size):
                self.assertEqual(
                    sorted(r.nf for r in requests[start:start + size]),
                    sorted(workload.nfs))
            for start in range(0, len(requests), 2 * size):
                pairs = {(r.nf, r.shape)
                         for r in requests[start:start + 2 * size]}
                self.assertEqual(len(pairs), 2 * size)

    def test_trace_seeds(self):
        fresh = first_requests(wl.WORKLOADS["serve_long_trace"], 1, 500)
        self.assertEqual(len({r.trace_seed for r in fresh}), 500)
        for name in ("serve_short_trace", "serve_large_nf"):
            fixed = first_requests(wl.WORKLOADS[name], 1, 200)
            self.assertEqual(len({r.trace_seed for r in fixed}), 1)

    def test_packets_and_clients(self):
        expected = {"serve_short_trace": (60, 1), "serve_long_trace": (2000, 2),
                    "serve_large_nf": (20, 1)}
        for name, (packets, clients) in expected.items():
            workload = wl.WORKLOADS[name]
            self.assertEqual(workload.clients, clients)
            self.assertEqual(
                {r.n_packets for r in first_requests(workload, 1, 50)},
                {packets})

    def test_shapes_are_the_programs_standard_shapes(self):
        from repro.workload.spec import LARGE_FLOWS, SMALL_FLOWS

        for spec in (LARGE_FLOWS, SMALL_FLOWS):
            fields = dataclasses.asdict(spec)
            fields.pop("n_packets")
            self.assertEqual(wl.SHAPES[spec.name], fields)

    def test_pools_are_library_nfs(self):
        from repro.click.elements import ELEMENT_BUILDERS

        self.assertEqual(
            set(wl.FAST_NFS),
            set(ELEMENT_BUILDERS) - {"cmsketch", "dpi", "ipclassifier",
                                     "wepdecap"})
        self.assertLessEqual(set(wl.LARGE_NFS), set(ELEMENT_BUILDERS))

    def test_wire_requests_parse(self):
        from repro.serve.schemas import AnalyzeRequest

        request = first_requests(wl.WORKLOADS["serve_long_trace"], 1, 1)[0]
        parsed = AnalyzeRequest.from_dict(request.wire())
        self.assertEqual(parsed.element, request.nf)
        self.assertEqual(parsed.workload.n_packets, 2000)
        self.assertEqual(parsed.trace_seed, request.trace_seed)

    def test_parity_sample_covers_every_received_nf(self):
        workload = wl.WORKLOADS["serve_short_trace"]
        received = first_requests(workload, 5, 120)
        sample = wl.parity_sample(received, workload, 5)
        self.assertEqual([r.nf for r in sample], list(workload.nfs))
        self.assertTrue(set(sample) <= set(received))
        self.assertEqual(sample, wl.parity_sample(received, workload, 5))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_keeps_ten_beyond_p90(self):
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.percentile(samples, 90), 90.0)
        self.assertEqual(stats.percentile(samples, 50), 50.0)

    def test_failures_count_as_misses(self):
        samples = [float(i) for i in range(1, 91)]
        # 90 answered + 10 failed: p90 is still the 90th fastest answer,
        # one more failure pushes it onto a miss.
        self.assertEqual(stats.percentile(samples, 90, n_missed=10), 90.0)
        self.assertTrue(math.isinf(stats.percentile(samples[:-1], 90,
                                                    n_missed=11)))
        self.assertTrue(math.isinf(stats.percentile([], 50, n_missed=3)))
        self.assertEqual(stats.percentile([5.0], 50, n_missed=1), 5.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_miss_is_reported_as_a_json_number(self):
        value = stats.finite_or_max(stats.MISS)
        self.assertTrue(math.isfinite(value))
        json.loads(json.dumps({"value": value}, allow_nan=False))


class RatioTest(unittest.TestCase):
    def test_coverage_is_summed_layers_over_summed_analyze(self):
        layers = {"a": [1.0, 2.0], "b": [3.0, 0.5]}
        self.assertAlmostEqual(stats.coverage(layers, [4.0, 3.0]), 6.5 / 7.0)
        self.assertEqual(stats.coverage(layers, []), 0.0)

    def test_broker_ratios_use_counter_deltas(self):
        before = stats.parse_prometheus(
            "# TYPE serve_batches_total counter\n"
            "serve_batches_total 10\n"
            "serve_batched_requests_total 12\n"
            "serve_batch_wait_seconds_sum 0.5\n"
            "serve_batch_wait_seconds_count 10\n")
        after = stats.parse_prometheus(
            "serve_batches_total 30\n"
            "serve_batched_requests_total 52\n"
            "serve_batch_wait_seconds_sum 0.6\n"
            "serve_batch_wait_seconds_count 30\n"
            'http_requests_total{endpoint="/v1/analyze",status="200"} 7\n')
        metrics = stats.broker_metrics(before, after)
        self.assertAlmostEqual(metrics["serve.broker_jobs_per_batch"], 2.0)
        self.assertAlmostEqual(metrics["serve.broker_wait_ms"], 5.0)
        self.assertEqual(
            after['http_requests_total{endpoint="/v1/analyze",status="200"}'],
            7.0)

    def test_empty_base(self):
        self.assertEqual(stats.ratio(3.0, 0), 0.0)
        self.assertEqual(stats.broker_metrics({}, {}),
                         {"serve.broker_wait_ms": 0.0,
                          "serve.broker_jobs_per_batch": 0.0})

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / median)

    def test_median_difference_pairs_up(self):
        self.assertEqual(stats.median_difference([5, 7, 9], [1, 2, 3]), 5)
        with self.assertRaises(ValueError):
            stats.median_difference([1, 2], [1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_declared_metrics_are_the_ones_printed(self):
        from perfbench import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            run.PER_LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(wl.WORKLOADS))


def _body(rid: str, result: object, kind: str = "analysis_result") -> bytes:
    env = {"schema": 4, "kind": kind, "request_id": rid, "result": result,
           "error": None}
    return (json.dumps(env, indent=2) + "\n").encode()


class CheckerTest(unittest.TestCase):
    request = wl.Request("udpcount", "large_flows", 20, 0)

    def test_accepts_consistent_answers(self):
        checker = Checker()
        self.assertTrue(checker.check(self.request, "r1", 200, "r1",
                                      _body("r1", {"x": 1})))
        self.assertTrue(checker.check(self.request, "r2", 200, "r2",
                                      _body("r2", {"x": 1})))
        self.assertEqual(checker.bodies[self.request][0], "r1")
        self.assertEqual(
            checker.digests[self.request],
            hashlib.sha256(_body("r1", {"x": 1}).replace(b'"r1"', b"")
                           ).hexdigest())

    def test_rejects_a_different_result_for_the_same_request(self):
        checker = Checker()
        checker.check(self.request, "r1", 200, "r1", _body("r1", {"x": 1}))
        self.assertFalse(checker.check(self.request, "r2", 200, "r2",
                                       _body("r2", {"x": 2})))
        self.assertIn(self.request, checker.inconsistent)

    def test_rejects_status_kind_and_id_errors(self):
        checker = Checker()
        bad = [
            (500, "r1", _body("r1", {"x": 1})),
            (200, "r1", _body("r1", {"x": 1}, kind="error")),
            (200, "other", _body("r1", {"x": 1})),
            (200, "r1", _body("other", {"x": 1})),
            (200, "r1", b"not json"),
        ]
        for status, echoed, body in bad:
            self.assertFalse(checker.check(self.request, "r1", status,
                                           echoed, body))
        self.assertEqual(len(checker.errors), len(bad))
        self.assertNotIn(self.request, checker.bodies)


if __name__ == "__main__":
    unittest.main()
