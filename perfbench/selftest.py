"""Self-tests of the benchmark harness (not of the package).

    python3 perfbench/selftest.py

* A tiny traced run made twice repeats every count exactly: calls, cache
  hits and misses, resolves per point, SVDs per point, polyval calls per
  solve.
* Deliberately corrupted outputs (one eigenvalue shifted by 1e-6
  relative, one event dropped) are caught as failed ops.
* A wrapped function that no longer exists is reported as null.
* Outside a source checkout the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
import warnings

import run
import tracer as tracer_mod

WORKDIR = run.WORK / "selftest"


def _runner(workload: str, seed: int = 7, traced: bool = False):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl, first = run.setup(workload, seed, WORKDIR)
    tracer = tracer_mod.Tracer() if traced else None
    return run.Runner(wl, first, tracer), first


def _counts(workload: str, pick) -> dict:
    """Per-layer counts of one traced pass over the items ``pick`` selects."""
    runner, first = _runner(workload, traced=True)
    items = pick(first)
    for item in items:
        runner.run_op(item, traced=True)
    metrics = runner.tracer.metrics(len(items))
    return {k: v for k, v in metrics.items() if not k.endswith("_ms")}


def _find(runner, first, pred):
    """First item of the first cycles that satisfies ``pred``."""
    cycles = [first] + [runner.wl.cycle(i) for i in range(1, 10)]
    return next(i for items in cycles for i in items if pred(i))


def _shift_one(values):
    values = list(values)
    k = len(values) // 2
    values[k] *= 1.0 + 1e-6
    return tuple(values)


class CountsRepeat(unittest.TestCase):
    def check_repeat(self, workload, pick):
        first, second = _counts(workload, pick), _counts(workload, pick)
        self.assertEqual(first, second)
        return first

    def test_spectrum_corpus(self):
        counts = self.check_repeat("spectrum-corpus", lambda items: items)
        self.assertGreater(counts["spectra.eigenvalues.calls"], 0)
        self.assertGreater(counts["numpy.polyval_per_solve"], 0)
        self.assertEqual(counts["spectra.fundamental_solutions.hits"], 0)

    def test_sweep_n2(self):
        counts = self.check_repeat(
            "sweep-n2", lambda items: [i for i in items if i["example"] == "ex1.1"])
        self.assertGreater(counts["tracing.resolves_per_point"], 1.0)
        self.assertGreater(counts["numpy.svd_per_point"], 1.0)
        self.assertGreater(counts["spectra.fundamental_solutions.hit_ratio"], 0.9)
        self.assertEqual(counts["cli.main.calls"], 1)

    def test_jump_asymptotics(self):
        counts = self.check_repeat(
            "jump-asymptotics", lambda items: [i for i in items if i["fixture"] == "coupled-sweep"])
        self.assertEqual(counts["tracing.verify_asymptotic_theorem.calls"], 1)
        self.assertGreater(counts["tracing.classify_jump.calls"], 0)


class CorruptionsCaught(unittest.TestCase):
    def test_shifted_eigenvalue(self):
        runner, first = _runner("spectrum-corpus")
        for kind in ("separated", "coupled", "chart"):
            item = _find(runner, first, lambda i: i["N"] == 4 and i["kind"] == kind)
            self.assertTrue(runner.run_op(item).ok)
            bad = runner.run_op(item, corrupt=lambda _, values: _shift_one(values))
            self.assertFalse(bad.ok, kind)
            self.assertTrue(bad.reason.startswith("check."), bad.reason)
        self.assertEqual(runner.incorrect, 3)

    def test_sweep_corruptions(self):
        runner, first = _runner("sweep-n2")
        item = _find(runner, first, lambda i: i["example"] == "ex1.1")
        singular = run_singular(item["example"])

        def drop_event(_, outputs):
            table, events = outputs
            return table, [e for e in events if abs(e["nu"] - singular) > 1e-6]

        def shift_value(_, outputs):
            table, events = outputs
            nu, values, count = table[100]
            table[100] = (nu, list(_shift_one(values)), count)
            return table, events

        self.assertTrue(runner.run_op(item).ok)
        self.assertEqual(runner.run_op(item, corrupt=drop_event).reason, "check.singular_event")
        self.assertEqual(runner.run_op(item, corrupt=shift_value).reason, "check.closed_form")


def run_singular(example: str) -> float:
    import slpkit.fixtures

    return slpkit.fixtures.BUILTINS[example]["singular"][0]


class Reporting(unittest.TestCase):
    def test_missing_function_is_null(self):
        saved = tracer_mod.TARGETS
        tracer_mod.TARGETS = saved + (("spectra", "renamed_away", "slpkit.spectra", "renamed_away", "span"),)
        try:
            runner, first = _runner("spectrum-corpus", traced=True)
            runner.run_op(first[0], traced=True)
            metrics = runner.tracer.metrics(1)
        finally:
            tracer_mod.TARGETS = saved
        self.assertIsNone(metrics["spectra.renamed_away.calls"])
        self.assertIsNone(metrics["spectra.renamed_away.self_ms"])
        self.assertEqual(metrics["spectra.eigenvalues.calls"], 1)

    def test_tail_latency(self):
        self.assertIsNone(run.tail_latency([0.001] * 19))
        tail = run.tail_latency([0.001 * i for i in range(1, 101)])
        self.assertEqual((tail["percentile"], tail["samples"]), (90.0, 100))

    def test_fails_outside_a_checkout(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep-n2",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
