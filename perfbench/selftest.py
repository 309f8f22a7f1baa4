"""Fast self-tests of the benchmark's own logic; no workload runs.

    python3 perfbench/selftest.py
"""

import json
import sys
import unittest
from pathlib import Path

import metrics
import tracer
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def span(sid, parent, name, start, end, attrs=None):
    return [sid, parent, name, start, end, attrs]


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [span(0, -1, "cli.main", 0.0, 10.0),
                 span(1, 0, "optimizer.maximize", 1.0, 7.0),
                 span(2, 1, "functionals.euler_merit", 2.0, 3.0),
                 span(3, 1, "functionals.euler_merit", 4.0, 6.0),
                 span(4, 3, "functionals.euler_energy", 4.5, 5.0)]
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[0], 4.0)   # 10 - 6
        self.assertAlmostEqual(own[1], 3.0)   # 6 - 1 - 2
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 1.5)   # 2 - 0.5
        self.assertAlmostEqual(own[4], 0.5)
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_layer_metrics_of_a_small_study(self):
        solve = {"n": 16, "iterations": 3, "status": "converged"}
        cold = {"n": 16, "iterations": 5, "status": "max_iter"}
        spans = [span(0, -1, "cli.main", 0.0, 20.0),
                 span(1, 0, "optimizer.convergence_study", 1.0, 19.0),
                 span(2, 1, "optimizer.maximize", 2.0, 8.0, solve),
                 span(3, 2, "functionals.euler_merit", 2.0, 4.0),
                 span(4, 3, "functionals.euler_energy", 2.0, 3.0),
                 span(5, 2, "functionals.euler_merit", 5.0, 7.0),
                 span(6, 5, "functionals.euler_energy", 5.0, 6.5),
                 span(7, 1, "optimizer.maximize", 9.0, 12.0, cold),
                 span(8, 7, "functionals.euler_merit", 9.0, 10.0),
                 span(9, 8, "model.f_rows", 9.0, 9.5)]
        dump = {"spans": spans,
                "counters": {"model.drift.f": {"calls": 10, "seconds": 0.25}}}
        out = metrics.layer_metrics(dump)
        self.assertEqual(out["optimizer.solves"], 2)
        self.assertEqual(out["optimizer.iterations"], 8)
        self.assertEqual(out["optimizer.evals"], 3)
        self.assertAlmostEqual(out["optimizer.evals_per_iter"], 3 / 8)
        self.assertAlmostEqual(out["optimizer.converged_ratio"], 0.5)
        self.assertAlmostEqual(out["optimizer.self_s"], (6 - 4) + (3 - 1))
        self.assertEqual(out["optimizer.iterations.euler.N16"], 3)
        self.assertEqual(out["optimizer.iterations.euler.cold"], 5)
        self.assertEqual(out["functionals.euler_merit.calls"], 3)
        self.assertAlmostEqual(out["functionals.euler_merit.us_per_call"],
                               1e6 * 5.0 / 3)
        self.assertAlmostEqual(out["functionals.density_us_per_call"],
                               1e6 * (5.0 - 2.5) / 3)
        self.assertAlmostEqual(out["functionals.busy_s"], 5.0)
        self.assertEqual(out["model.drift_calls"], 11)
        self.assertAlmostEqual(out["model.drift_s"], 0.75)
        self.assertAlmostEqual(out["cli.self_s"], 20.0 - 18.0)
        self.assertEqual(set(out) | {"trace.wall_s", "trace.overhead_s"},
                         set(metrics.per_layer_units()))


class FailureCountTest(unittest.TestCase):
    def test_unconverged_and_missing_operations_fail(self):
        self.assertEqual(metrics.failed_ops(24, 23, True), 1)
        self.assertEqual(metrics.failed_ops(4, 0, True), 4)
        self.assertEqual(metrics.failed_ops(4, 9, True), 0)

    def test_failed_check_fails_every_operation(self):
        self.assertEqual(metrics.failed_ops(24, 24, False), 24)

    def test_outlier_fraction_band(self):
        n = workloads.VDP_REPLICATES * 161
        self.assertTrue(workloads.outlier_fraction_ok(0.25, n, 0.25))
        self.assertFalse(workloads.outlier_fraction_ok(0.0, n, 0.25))


class CombineTest(unittest.TestCase):
    def test_counts_must_agree(self):
        base = {name: 1 for name in metrics.per_layer_units()}
        other = dict(base, **{"optimizer.evals": 2})
        values, bad = metrics.combine_traced([base, other], [2.0], [1.0])
        self.assertEqual(bad, "optimizer.evals")
        self.assertEqual(values["optimizer.evals"], 1)

    def test_times_are_medians_and_overhead_is_a_difference(self):
        runs = [{name: v for name in metrics.per_layer_units()}
                for v in (1, 1, 1)]
        runs[1]["optimizer.self_s"] = 7.0
        values, bad = metrics.combine_traced(runs, [3.0, 5.0], [2.5, 3.5])
        self.assertIsNone(bad)
        self.assertEqual(values["optimizer.self_s"], 1)
        self.assertAlmostEqual(values["trace.overhead_s"], 1.0)


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_record_errors(self):
        t = tracer.Tracer("test")

        def leaf(x):
            if x < 0:
                raise ValueError(x)
            return x

        leaf_span = t.span("leaf", leaf)
        outer = t.span("outer", lambda: [leaf_span(1), leaf_span(2)])
        self.assertEqual(outer(), [1, 2])
        with self.assertRaises(ValueError):
            leaf_span(-1)
        names = [(s[2], s[1]) for s in t.spans]
        self.assertEqual(names, [("outer", -1), ("leaf", 0), ("leaf", 0),
                                 ("leaf", -1)])
        self.assertEqual(t.spans[3][5], {"status": "error:ValueError"})
        self.assertTrue(all(s[3] <= s[4] for s in t.spans))

    def test_counter(self):
        t = tracer.Tracer("test")
        f = t.counter("c", lambda a, b: a + b)
        self.assertEqual(f(1, 2), 3)
        self.assertEqual(f(3, 4), 7)
        self.assertEqual(t.dump()["counters"]["c"]["calls"], 2)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(BENCHMARK_JSON.read_text())

    def test_metric_names_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         metrics.per_layer_units())

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    sys.exit(0 if unittest.main(exit=False).result.wasSuccessful() else 1)
