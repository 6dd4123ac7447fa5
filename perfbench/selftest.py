"""Self-tests of the benchmark itself (not of ballrep).

Run from the root of a ballrep checkout:

    python3 perfbench/selftest.py

The file is deliberately not named test_*.py, so the repository's own test
run does not collect it.  The smoke tests start the benchmark as a
subprocess with one item per pass and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")
WORKLOADS = ("paper-solves", "engine-queries", "cli-cold")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class GeneratorTest(unittest.TestCase):
    def test_engine_items_repeat_for_a_seed(self):
        def shape(seed):
            return [(item.id, item.meta.get("budget"), item.meta.get("terms"))
                    for item in workloads.engine_queries(seed, 2)]

        first = shape(5)
        self.assertEqual(first, shape(5))
        self.assertNotEqual(first, shape(6))

    def test_random_inputs_repeat_for_a_seed(self):
        a = inputs.random_gate_input(np.random.default_rng([4, 0]), 3, 6, 1)
        b = inputs.random_gate_input(np.random.default_rng([4, 0]), 3, 6, 1)
        c = inputs.random_gate_input(np.random.default_rng([5, 0]), 3, 6, 1)
        self.assertEqual(a.terms, b.terms)
        self.assertNotEqual(a.terms, c.terms)

    def test_solver_seeds_repeat_for_a_seed(self):
        self.assertEqual(workloads._sub_seed(9, 3), workloads._sub_seed(9, 3))
        self.assertNotEqual(workloads._sub_seed(9, 3), workloads._sub_seed(9, 4))
        self.assertNotEqual(workloads._sub_seed(9, 3), workloads._sub_seed(10, 3))

    def test_pass_count_depends_only_on_the_seconds(self):
        seconds = benchmark_spec()["run_seconds"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertGreaterEqual(worker.pass_count(workload, seconds), 3)
                self.assertGreaterEqual(worker.pass_count(workload, seconds, 2), 1)
                self.assertEqual(worker.pass_count(workload, 0), 1)

    def test_cli_inputs_repeat_for_a_seed(self):
        def contents(seed, sub):
            paths = workloads.write_cli_inputs(os.path.join(SCRATCH, sub), seed)
            out = {}
            for name, path in paths.items():
                with open(path) as fh:
                    out[name] = fh.read()
            return out

        self.assertEqual(contents(3, "a"), contents(3, "b"))
        self.assertNotEqual(contents(3, "a")["infeasible"], contents(4, "a")["infeasible"])


class GateInputTest(unittest.TestCase):
    def test_shifted_minimum_has_the_intended_sign(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            for d in (4, 6):
                for sign in (1, -1):
                    gi = inputs.random_gate_input(rng, n, d, sign)
                    low, point = inputs.sphere_minimum(gi.terms, n)
                    self.assertEqual(gi.finite, sign > 0)
                    self.assertAlmostEqual(low, sign * inputs.SPHERE_MARGIN, delta=1e-6)
                    self.assertAlmostEqual(float(np.linalg.norm(point)), 1.0, places=12)
                    # no sampled direction goes below the fine-grid minimum
                    dirs = rng.normal(size=(20000, n))
                    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                    self.assertGreater(inputs.evaluate(gi.terms, dirs).min(), low - 1e-6)

    def test_euclidean_power_is_one_on_the_sphere(self):
        dirs = np.random.default_rng(1).normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        values = inputs.evaluate(inputs.euclidean_power(3, 6), dirs)
        np.testing.assert_allclose(values, 1.0, rtol=1e-13)


def _attribute_snapshot():
    import ballrep.cli  # noqa: F401  (the package does not import the CLI itself)

    snap = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "ballrep" or name.startswith("ballrep.")):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
    cls = sys.modules["ballrep.polynomials"].GeneralizedPolynomial
    for attr, value in vars(cls).items():
        snap[("GeneralizedPolynomial", attr)] = value
    return snap


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_patched_attribute(self):
        before = _attribute_snapshot()
        recorder = tracer.Tracer()
        recorder.install()
        try:
            self.assertEqual(recorder.missing, [])
            during = _attribute_snapshot()
            changed = {k for k in before if during[k] is not before[k]}
            for key in [("ballrep.solvers", "volume"), ("ballrep.solvers", "grad_volume"),
                        ("ballrep.cli", "finite_volume_test"),
                        ("ballrep.volume", "finite_volume_test"),
                        ("ballrep.certificates", "jacobi_eigh"),
                        ("ballrep.projections", "jacobi_eigh"),
                        ("GeneralizedPolynomial", "evaluate")]:
                self.assertIn(key, changed)
        finally:
            recorder.uninstall()
        after = _attribute_snapshot()
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if after[k] is not before[k]], [])

    def test_exceptions_pass_through_and_are_recorded(self):
        V = sys.modules["ballrep.volume"]
        P = sys.modules["ballrep.polynomials"]
        bad = P.GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -3.0})
        recorder = tracer.Tracer()
        recorder.install()
        try:
            with self.assertRaises(V.InfiniteVolumeError):
                V.volume(bad)
        finally:
            recorder.uninstall()
        spans = recorder.spans
        self.assertEqual(spans[0].name, "volume.spherical")
        self.assertEqual(spans[0].error, "InfiniteVolumeError")
        self.assertEqual(recorder.stack, [])

    def test_self_times_add_up_to_the_wall(self):
        clock = iter(range(100)).__next__
        recorder = tracer.Tracer(clock=lambda: float(clock()))
        outer = recorder.open("solvers.solve")
        inner = recorder.open("volume.spherical")
        recorder.close(inner)
        recorder.close(outer)
        metrics = tracer.layer_metrics(recorder.spans, wall=10.0)
        self.assertEqual(metrics["volume.spherical_s"], 1.0)
        self.assertEqual(metrics["solvers.self_s"], 2.0)
        self.assertEqual(metrics["other_s"], 7.0)

    def test_import_split_sums_module_self_times(self):
        report = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |        50 |     numpy.linalg",
            "import time:        10 |        60 |   scipy",
            "import time:        40 |       100 |   scipy.optimize",
            "import time:         5 |       465 | ballrep",
        ])
        split = tracer.import_split(report)
        self.assertAlmostEqual(split["numpy"], 350e-6)
        self.assertAlmostEqual(split["scipy"], 50e-6)


def _run(workload: str, trace: int, cwd: str = ROOT, script: str | None = None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--max-items", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    def _check(self, workload: str, trace: int, kind: str):
        proc = _run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        expected = [m["name"] for m in benchmark_spec()[kind]]
        self.assertEqual(sorted(result["metrics"]), sorted(expected))
        for name in expected:
            value = result["metrics"][name]["value"]
            self.assertIsInstance(value, (int, float))
            self.assertTrue(any(line.startswith(name + " ") for line in lines), name)
        return result["metrics"]

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, 0, "end_to_end")
                layer = self._check(workload, 1, "per_layer")
                total = sum(layer[name]["value"] for name in set(tracer.SELF_TIME_METRIC.values()))
                total += layer["other_s"]["value"]
                self.assertAlmostEqual(total, layer["trace.wall_s"]["value"], places=9)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("paper-solves", 0, cwd=bare,
                    script=os.path.join(bare, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
