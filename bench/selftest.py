"""Tests of the benchmark itself, at the smallest size of each workload.

    python3 bench/selftest.py

Run from the repository root.  The file name keeps it out of the default
pytest collection, so the library's test suite is unaffected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _last_line(ops, passes, metrics):
    lines = run.report_lines(ops, passes, metrics, run.context("smoke", SEED, 0.0))
    return json.loads(lines[-1])


def _names_and_units(entries):
    return {e["name"]: e["unit"] for e in entries}


class SmokeTest(unittest.TestCase):
    def test_each_workload_at_smallest_size(self):
        for name, make in run.WORKLOADS.items():
            with self.subTest(workload=name):
                ops = make(SEED, smoke=True)
                passes, metrics = run.measure(ops, 0, trace=False)
                result = _last_line(ops, passes, metrics)
                self.assertEqual(result["failed"], 0, [r["detail"] for r in passes[0]])
                self.assertTrue(result["correct"])
                self.assertEqual(result["attempted"], len(ops))
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, _names_and_units(SPEC["end_to_end"]))
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_wrong_expected_value_is_a_failure_not_an_abort(self):
        ops = run.gha_params(SEED, smoke=True)
        ops[0] = dict(ops[0], expect=dict(ops[0]["expect"], total=ops[0]["expect"]["total"] + 1))
        passes, metrics = run.measure(ops, 0, trace=False)
        result = _last_line(ops, passes, metrics)
        self.assertEqual(result["attempted"], len(ops))
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertFalse(passes[0][0]["ok"])
        self.assertTrue(all(r["ok"] for r in passes[0][1:]))


class TraceTest(unittest.TestCase):
    def test_per_layer_names_and_repeatable_counts(self):
        per_layer = _names_and_units(SPEC["per_layer"])
        for name, make in run.WORKLOADS.items():
            with self.subTest(workload=name):
                ops = make(SEED, smoke=True)
                runs = []
                for _ in range(2):
                    passes, metrics = run.measure(ops, 0, trace=True)
                    runs.append(_last_line(ops, passes, metrics)["metrics"])
                printed = {k: v["unit"] for k, v in runs[0].items()}
                self.assertEqual(printed, per_layer)
                exact = [k for k, unit in per_layer.items() if unit != "s" and k != "trace.overhead_frac"]
                self.assertEqual({k: runs[0][k]["value"] for k in exact}, {k: runs[1][k]["value"] for k in exact})


class RefTimingTest(unittest.TestCase):
    def test_region_is_sampled_and_the_handler_left_out(self):
        rec = tracer.Recorder()
        t0 = perf_counter()
        with rec.region():
            while perf_counter() - t0 < 0.5:
                pass
        wall = perf_counter() - t0
        self.assertGreaterEqual(rec.samples, 4)
        self.assertLess(rec.elapsed, wall)
        ratio = rec.elapsed / (rec.elapsed_ref * tracer.reference_s())
        self.assertTrue(0.5 < ratio < 2, ratio)


class CommandTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / run.BENCH.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "nc-rewrite", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    sys.exit(unittest.main())
