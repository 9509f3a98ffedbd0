"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload through ``bench/run.py --size tiny`` untraced and
traced, checks that every metric of BENCHMARK.json is emitted with its unit,
that spans nest and have nonnegative self time, that the traced counts match
the workloads' predictions, and that the counters match hand-counted values
on a two-path ``stop_on`` case.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkRuns(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls) -> None:
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = run_bench(workload, trace)

    def test_every_metric_with_its_unit(self) -> None:
        for (workload, trace), (_, result) in self.runs.items():
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in wanted},
                )
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_are_positive(self) -> None:
        for workload in WORKLOADS:
            metrics = self.runs[workload, 0][1]["metrics"]
            for name, metric in metrics.items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0.0)

    def test_report_carries_provenance_and_check_statistics(self) -> None:
        for (workload, trace), (report, _) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                prov = report["provenance"]
                for key in ("git_sha", "nproc", "python", "numpy", "scipy"):
                    self.assertIn(key, prov)
                self.assertEqual(report["check_fail_frac"], 0.0)
                self.assertEqual(report["path_fail_frac"], 0.0)
                for check in report["passes"][0]["checks"]:
                    self.assertGreater(len(check), 2, check["name"])

    def test_traced_counts_match_predictions(self) -> None:
        def layers(workload):
            return {k: v["value"] for k, v in self.runs[workload, 1][1]["metrics"].items()}

        euler = layers("euler_sum_law")
        self.assertEqual(euler["integrators.simulate_batch.useful_frac"], 1.0)
        self.assertEqual(euler["cirprocess.exact_step.calls"], 0)
        first_passage = layers("exact_first_passage")
        self.assertEqual(first_passage["randomness.step_normals.calls"], 0)
        self.assertLess(first_passage["integrators.simulate_batch.useful_frac"], 0.5)
        self.assertEqual(layers("stationary_oracles")["integrators.simulate_batch.calls"], 0)
        cli = layers("cli_small_batches")
        for name in ("cli.main.calls", "events.detect_events.calls",
                     "events.first_passage_partial_sum.calls",
                     "integrators.simulate_path.calls"):
            self.assertGreater(cli[name], 0, name)

    def test_spans_nest_with_nonnegative_self_time(self) -> None:
        for workload in WORKLOADS:
            report = self.runs[workload, 1][0]
            trace = json.loads((ROOT / report["trace_file"]).read_text())
            with self.subTest(workload=workload):
                self.assertGreater(len(trace["runs"]), 0)
                for run in trace["runs"]:
                    check_spans(self, run["spans"])


def check_spans(case: unittest.TestCase, spans: list) -> None:
    by_id = {s[0]: s for s in spans}
    self_time = {s[0]: s[4] - s[3] for s in spans}
    roots = 0
    for span_id, parent, name, start, end in spans:
        case.assertLessEqual(start, end, name)
        if parent is None:
            roots += 1
            continue
        _, _, parent_name, p_start, p_end = by_id[parent]
        case.assertTrue(p_start <= start and end <= p_end, f"{name} outside {parent_name}")
        self_time[parent] -= end - start
    case.assertEqual(roots, 1)
    for span_id, value in self_time.items():
        case.assertGreaterEqual(value, -1e-9, by_id[span_id][2])


class HandCountedCounters(unittest.TestCase):
    """Two paths under stop_on: one stops at t = 0, the other runs to the horizon."""

    @classmethod
    def setUpClass(cls) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(BENCH))
        import numpy as np

        import tracing
        from cir_particles import integrators, model, stationary

        cls.recorder = tracing.Recorder("selftest")
        tracing.instrument(cls.recorder)
        params = model.ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        config = integrators.SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=2)
        initial = np.array([[0.0, 1.0], [5.0, 6.0]])  # psum_1 = 0 <= 0.5 at t = 0
        cls.batch = integrators.simulate_batch(
            params, config, initial=initial, stop_on=("psum", 1, 0.5), noise_refine=2)
        stationary.mh_sampler(params, 10, np.random.default_rng(1), thin=3)
        stationary.mh_sampler(params, 10, np.random.default_rng(1), thin=3, burn_in=5)
        cls.summed = tracing.layer_metrics(cls.recorder)

    def test_stop_times(self) -> None:
        self.assertEqual(list(self.batch.stop_time), [0.0, 0.1])

    def test_counters(self) -> None:
        m = self.summed
        # 10 steps; path 0 contributes no useful step, path 1 ten.
        self.assertEqual(m["integrators.simulate_batch.calls"], 1)
        self.assertEqual(m["integrators.simulate_batch.rows"], 2)
        self.assertEqual(m["integrators.simulate_batch.path_steps_useful"], 10)
        self.assertEqual(m["integrators.simulate_batch.path_steps_stepped"], 20)
        # noise_refine = 2: two step_normals calls per step, 2 paths x 2 coordinates each.
        self.assertEqual(m["randomness.step_normals.calls"], 20)
        self.assertEqual(m["randomness.step_normals.variates"], 80)
        # default burn-in max(1000, 10 // 5) = 1000, then 10 * 3; explicit 5, then 30.
        self.assertEqual(m["stationary.mh_sampler.iters"], 1030 + 35)

    def test_spans(self) -> None:
        spans = self.recorder.spans
        self.assertEqual(sum(s[2] == "randomness.step_normals" for s in spans), 20)
        # Calls made from here are top-level: wrap them in one root span for the check.
        wrapped = [(-1, None, "root", min(s[3] for s in spans), max(s[4] for s in spans))]
        wrapped += [(s[0], -1 if s[1] is None else s[1], *s[2:]) for s in spans]
        check_spans(self, wrapped)


if __name__ == "__main__":
    unittest.main()
