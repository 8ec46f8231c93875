#!/usr/bin/env python3
"""Self-tests of the benchmark: its checks, its inputs, its tracer, its output.

Run with ``python3 perfbench/selftest.py`` from anywhere; it takes about
ten seconds.  The file is not named ``test_*.py`` so that the project's
own test suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run   # pins the BLAS thread count before NumPy loads

sys.path.insert(0, str(run.SRC))

import numpy as np   # noqa: E402

import framelab      # noqa: E402
import workloads     # noqa: E402
from tracer import LAYERS, Tracer   # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def setup(name, seed=7):
    return workloads.setup(name, seed, run.OUT)


def job(workload, name):
    return next(j for j in workload.jobs if j.name == name)


class PerturbedResultsFail(unittest.TestCase):
    """Each check passes on a real result and fails once one value is wrong."""

    def assert_caught(self, check, result, key, perturb):
        self.assertEqual(check(result), [])
        bad = copy.deepcopy(result)
        bad[key] = perturb(bad[key])
        self.assertNotEqual(check(bad), [], f"{key} perturbed but the check passed")

    def test_exhaustive(self):
        w = setup("exhaustive")
        for name, key, perturb in [
            ("difference_sets", "13,4", lambda e: e[:-1] + [e[-1] + 1]),
            ("ner_13_4_K8", "worst_cond", lambda c: c * (1 + 1e-7)),
            ("ner_13_4_K8", "worst_subset", lambda s: sorted(s)[::-1]),
            ("ner_13_4_K8", "subsets_examined", lambda n: n - 1),
            ("exact_4x16", "expectation", lambda v: v * (1 - 1e-7)),
            ("contraction", "lhs", lambda v: v + 1e-6),
            ("contraction", "holds", lambda h: not h),
        ]:
            j = job(w, name)
            self.assert_caught(j.check, j.run(), key, perturb)
        j = job(w, "ner_21_5_K15_sampled")
        self.assertNotEqual(j.check({"worst_cond": 1.7, "subsets_examined": 20_000}), [])
        khin = job(w, "khintchine_exact")
        self.assertNotEqual(khin.check({"lhs": 17.5, "rhs": 17.4, "ratio": 1.006,
                                        "trials": 16384}), [])

    def test_montecarlo(self):
        w = setup("montecarlo")
        probes = job(w, "probes")
        self.assert_caught(probes.check, probes.run(), "max_rel_error", lambda e: 1e-8)
        mc = {"mean_error": 0.45, "stderr": 0.002, "exact": 0.45}
        self.assert_caught(workloads.check_mc_vs_exact, mc, "mean_error", lambda m: m + 0.011)
        sweep = {"M": [64, 256], "mean_errors": [0.49, 0.24], "ratios": [0.59, 0.58]}
        self.assert_caught(workloads.check_sweep, sweep, "mean_errors", lambda e: e[::-1])
        self.assert_caught(workloads.check_sweep, sweep, "ratios", lambda r: [r[0], 3.1])
        rud = {"lhs": 58.8, "lhs_stderr": 0.1, "rhs": 53.3, "ratio": 1.1, "trials": 2000}
        self.assert_caught(workloads.check_rudelson, rud, "ratio", lambda r: 4.1)
        self.assert_caught(workloads.check_concentration, {"ratio": 1.0}, "ratio",
                           lambda r: math.nan)
        khin = {"lhs": 13.0, "lhs_stderr": 0.02, "rhs": 29.1, "ratio": 0.45}
        self.assert_caught(workloads.check_khintchine_mc, khin, "ratio", lambda r: 1.05)

    def test_pipeline(self):
        w = setup("pipeline")
        try:
            j = job(w, "stirling")
            result = j.run()
            self.assertEqual(j.check(result), [])
            manifest = json.loads(result["stdout"])
            (path,) = manifest["outputs"]
            Path(path).write_text(Path(path).read_text().replace("true", "false", 1))
            self.assertNotEqual(j.check(result), [])     # digest no longer matches
            nan = json.loads(result["stdout"])
            nan["result"]["m_max"] = math.nan
            self.assertNotEqual(j.check(dict(result, stdout=json.dumps(nan))), [])
            self.assertNotEqual(j.check(dict(result, exit_code=3)), [])
            probe = job(w, "probe_n9")
            for error, accepted in (("Singular", True), ("IllConditioned", True),
                                    ("NonFiniteEntry", False)):
                refused = {"exit_code": 3, "stdout": json.dumps({"error": error})}
                self.assertEqual(probe.check(refused) == [], accepted, error)
        finally:
            w.close()


class SeedDeterminesInputs(unittest.TestCase):

    def test_same_seed_same_job_list_and_inputs(self):
        for name in run.WORKLOADS:
            a, b, c = setup(name, 5), setup(name, 5), setup(name, 6)
            try:
                self.assertEqual([j.name for j in a.jobs], [j.name for j in b.jobs])
                self.assertEqual(a.fingerprint(), b.fingerprint(), name)
                self.assertNotEqual(a.fingerprint(), c.fingerprint(), name)
            finally:
                for w in (a, b, c):
                    w.close()


class TracerAccounting(unittest.TestCase):

    def test_self_times_add_up_to_traced_wall(self):
        originals = {name: getattr(framelab.robustness, name)
                     for name in ("condition_number", "worst_condition")}
        w = setup("pipeline")
        tracer = Tracer(run.HOOKS)
        try:
            with tracer.installed():
                self.assertIsNot(framelab.robustness.condition_number,
                                 originals["condition_number"])
                p = run.run_pass(w, tracer)
        finally:
            w.close()
        self.assertEqual(p.failures, [])
        for name, fn in originals.items():
            self.assertIs(getattr(framelab.robustness, name), fn, "tracer left a wrapper")
        traced_wall = tracer.inclusive_s["bench.pass"]
        self.assertAlmostEqual(sum(tracer.self_s.values()), traced_wall, delta=1e-9)
        self.assertLessEqual(traced_wall, p.wall)
        for layer in LAYERS:   # the pipeline reaches every module
            self.assertGreater(tracer.self_s[layer], 0.0, layer)
        self.assertEqual(tracer.calls["cli.main"], len(w.jobs))
        # condition_number is reached from robustness through its own binding
        self.assertEqual(tracer.calls["linalg.condition_number"],
                         tracer.counts["robustness.subsets"] + 1)

    def test_errors_counted_once_at_the_layer_boundary(self):
        tracer = Tracer()
        with tracer.installed(), tracer.span("bench.pass"):
            with self.assertRaises(framelab.Singular):
                framelab.probing.recover_coefficients(np.zeros((3, 3)), np.ones(3))
        self.assertEqual(tracer.errors["linalg"], 1)
        self.assertEqual(tracer.errors["probing"], 1)
        self.assertEqual(tracer.raised["linalg.singular_values"], 0)


class ResultLine(unittest.TestCase):

    def bench(self, *args, cwd=None, script=run.BENCH_DIR / "run.py"):
        return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                              capture_output=True, text=True, timeout=170)

    def test_result_line_has_every_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = self.bench("--workload", "pipeline", "--seed", "3", "--seconds", "1",
                             "--trace", str(trace))
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            self.assertEqual(got, want)

    def test_refuses_to_run_without_the_sources(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.OUT, prefix="bare-"))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            out = self.bench("--workload", "pipeline", "--seconds", "1",
                             cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("{", out.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
