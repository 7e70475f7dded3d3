#!/usr/bin/env python3
"""Tests of the benchmark itself:  python3 perfbench/selftest.py

Kept out of the library's pytest suite (the file name does not match
test_*.py) because the end-to-end case runs every workload once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from spans import Tracer
from workloads import WORKLOADS, build_round

HERE = Path(__file__).resolve().parent
# ops up to these sizes keep the traced comparison short
SMALL = {"certify": 8, "decide": 5, "catalog": 7}
# layers that must stay idle on a workload
IDLE = {"certify": ("spectra.",), "decide": ("exactmat.",),
        "catalog": ("exactmat.", "spectra.")}


class TracedOutputs(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_identical(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                ops, _ = build_round(workload, 3, str(run.OUT))
                ops = [op for op in ops if op.size <= SMALL[workload]]
                runner = run.Runner(ops)
                plain = runner.run_round()[2]
                tracer = Tracer()
                tracer.install()
                try:
                    traced = runner.run_round(tracer)[2]
                finally:
                    tracer.uninstall()
                self.assertEqual(runner.errors, [])
                self.assertNotIn(None, plain)
                self.assertEqual(plain, traced)
                metrics = tracer.layer_metrics()
                self.assertGreater(metrics["cli.bytes_out"], 0)
                for name, value in metrics.items():
                    if name.startswith(IDLE[workload]):
                        self.assertEqual(value, 0, name)

    def test_uninstall_restores_the_library(self):
        from deligne_simpson import cli, exactmat
        before = (cli.main, exactmat.Mat.__matmul__, cli.verify_tuple)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(cli.main, before[0])
        tracer.uninstall()
        self.assertEqual((cli.main, exactmat.Mat.__matmul__, cli.verify_tuple),
                         before)


class EndToEnd(unittest.TestCase):
    def _run(self, cwd, workload, seed=7):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            cwd=cwd, capture_output=True, text=True, timeout=300)

    def test_non_default_seed_has_no_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = self._run(HERE.parent, workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_without_library_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = self._run(tmp, "catalog")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
