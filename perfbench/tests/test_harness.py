"""Smoke tests of the benchmark harness at tiny grids.

Run from the repository root with either of::

    python3 -m unittest discover -s perfbench/tests
    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

TINY_S4 = ("compute", "--manifold", "s4", "--grid", "3", "--workers", "1", "--no-timing")
# 9^4 = 6561 nodes: two chunks, so both worker threads run one
TINY_E2XE2 = ("compute", "--manifold", "e2xe2", "--grid", "9", "--workers", "2", "--no-timing")


TINY_WORKLOAD = (run.Command(TINY_S4, run.check_compute),
                 run.Command(("reproduce", "cp2", "--format", "json"), run.check_reproduce("cp2")))


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]}, bench)


class ResultSchemaTest(unittest.TestCase):
    def _check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, declared)
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))
        json.dumps(result, allow_nan=False)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        end_to_end, _, _ = _declared()
        details, result = run.measure("tiny", TINY_WORKLOAD, seconds=0.1, trace=False,
                                      setup_runs=2)
        self._check_result(result, end_to_end)
        for name in end_to_end:
            self.assertGreater(result["metrics"][name]["value"], 0)
        for key in ("nproc", "python", "numpy", "git_commit", "src_lines"):
            self.assertIn(key, details["provenance"])
        self.assertGreater(details["provenance"]["src_lines"], 0)
        self.assertEqual(len(details["loadavg_before"]), 3)
        self.assertEqual(len(details["loadavg_after"]), 3)

    def test_traced_run_reports_every_layer_metric_with_repeating_counts(self):
        _, per_layer, _ = _declared()
        details, result = run.measure("tiny", TINY_WORKLOAD, seconds=0.1, trace=True)
        self._check_result(result, per_layer)
        self.assertEqual(details["absent"], [])
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        self.assertEqual(metrics["reproduce.checks"], run.REPRODUCE_CHECKS["cp2"])
        self.assertEqual(metrics["quadrature.nodes"], 81 + 16 + 81)  # fine, halved, oracle
        self.assertAlmostEqual(metrics["quadrature.estimate_share"], 16 / 81)

    def test_benchmark_json_matches_the_harness(self):
        end_to_end, per_layer, bench = _declared()
        self.assertEqual(list(end_to_end.items()), list(run.END_TO_END))
        self.assertEqual(list(per_layer.items()), list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))
        self.assertIn("setup_s", end_to_end)


class TracingTest(unittest.TestCase):
    def test_self_times_add_up_to_the_traced_wall_time(self):
        for argv in (TINY_S4, ("reproduce", "cp2", "--format", "json")):
            traced = tracing.run_traced(list(argv))
            self.assertEqual(traced["rc"], 0)
            spans = traced["spans"]
            total_self = sum(tracing.self_times(spans).values())
            self.assertLessEqual(total_self, traced["run_s"])
            self.assertLess(traced["run_s"] - total_self, 0.05 * traced["run_s"] + 0.01)
            # every span's self time lands in exactly one per-layer time metric
            metrics = tracing.layer_metrics(spans)
            layer_times = sum(v for k, v in metrics.items()
                              if k.endswith("_s") and k != "quadrature.worker_idle_s")
            self.assertAlmostEqual(layer_times, total_self, places=9)

    def test_worker_threads_nest_under_integrate(self):
        traced = tracing.run_traced(list(TINY_E2XE2))
        self.assertEqual(traced["rc"], 0)
        spans = {s[0]: s for s in traced["spans"]}
        main_thread = threading.get_ident()
        chunks = [s for s in spans.values() if s[2] == "quadrature.chunk"]
        self.assertTrue(any(s[5] != main_thread for s in chunks))
        for s in chunks:
            self.assertEqual(spans[s[1]][2], "quadrature.integrate")
        for s in spans.values():
            if s[2] == "jets.MetricField.jets" and s[5] != main_thread:
                parent = spans[s[1]]
                self.assertIn(parent[2], ("quadrature.chunk", "jets.MetricField.jets"))
                self.assertEqual(parent[5], s[5])

    def test_counts_repeat_between_traced_runs(self):
        first = tracing.layer_metrics(tracing.run_traced(list(TINY_E2XE2))["spans"])
        second = tracing.layer_metrics(tracing.run_traced(list(TINY_E2XE2))["spans"])
        for name in tracing.COUNT_METRICS:
            self.assertEqual(first[name], second[name], name)

    def test_missing_entry_points_are_absent_not_errors(self):
        tracer = tracing.Tracer()
        tracer.install(
            entry_points=(("jets", "curvfun.geometry", "MetricField.no_such_method"),
                          ("zoo", "curvfun.no_such_module", "manifold_by_name")),
            whole_modules=(("discrete", "curvfun.no_such_module"),))
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["jets.MetricField.no_such_method",
                                         "zoo.manifold_by_name", "discrete"])

    def test_uninstall_restores_the_originals(self):
        import curvfun.geometry as geometry
        import curvfun.quadrature as quadrature

        before = (geometry.MetricField.jets, quadrature.riemann_arrays, quadrature.integrate)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(quadrature.riemann_arrays, before[1])
        tracer.uninstall()
        self.assertEqual((geometry.MetricField.jets, quadrature.riemann_arrays,
                          quadrature.integrate), before)


class ChecksTest(unittest.TestCase):
    def test_strict_parse_rejects_non_finite_tokens(self):
        for text in ('{"value": NaN}', '{"value": Infinity}', '{"value": -Infinity}'):
            with self.assertRaises(ValueError):
                run.parse_strict(text)
        self.assertEqual(run.parse_strict('{"value": 1.5}'), {"value": 1.5})

    def test_compute_check(self):
        ok = {"value": 2.0004, "error_estimate": 1e-9, "stderr": None}
        self.assertEqual(run.check_compute(ok, target=2.0), [])
        self.assertTrue(run.check_compute(dict(ok, value=2.002), target=2.0))
        self.assertTrue(run.check_compute(dict(ok, error_estimate="x")))
        self.assertTrue(run.check_compute({"value": 2.0, "stderr": None}))

    def test_taubes_check_against_the_pinned_reference(self):
        with open(BENCH / "taubes_reference.json") as fh:
            ref = json.load(fh)
        record = {"value": ref["value"] + 0.3, "error_estimate": 0.01, "stderr": 0.11}
        self.assertEqual(run.check_taubes(record), [])
        self.assertTrue(run.check_taubes(dict(record, value=ref["value"] + 1.0)))
        self.assertTrue(run.check_taubes(dict(record, stderr=None)))

    def test_reproduce_check(self):
        check = run.check_reproduce("so4")
        results = [{"quantity": "q%d" % i, "verdict": "PASS"} for i in range(5)]
        self.assertEqual(check({"results": results}), [])
        self.assertTrue(check({"results": results[:4]}))
        failing = results[:4] + [{"quantity": "q4", "verdict": "FAIL"}]
        self.assertTrue(check({"results": failing}))


class CommandLineTest(unittest.TestCase):
    def test_exits_nonzero_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "s4_gamma_d",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
