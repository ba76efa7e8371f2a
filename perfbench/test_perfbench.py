#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does) and checks that
  * the answer checkers reject a single corrupted element and a new seed
    changes the inputs but not the shapes (perfbench --selftest),
  * the metric names every workload prints equal the names in
    BENCHMARK.json, untraced and traced, with every answer correct,
  * run.py fails without printing a result where the program's sources are
    missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def run_benchmark(workload, trace, seconds=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.spec()

    def test_selftest(self):
        result = subprocess.run([str(self.binary), "--selftest"],
                                capture_output=True, text=True, timeout=120)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("selftest passed", result.stdout)

    def check_names(self, trace):
        want = sorted(m["name"] for m in
                      self.spec["per_layer" if trace else "end_to_end"])
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                result = run_benchmark(workload, trace)
                self.assertEqual(result.returncode, 0, result.stderr[-2000:])
                last = json.loads(result.stdout.splitlines()[-1])
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertEqual(sorted(last["metrics"]), want)
            if trace:
                break  # one traced run covers every layer's flow

    def test_end_to_end_metric_names_match_spec(self):
        self.check_names(trace=0)

    def test_per_layer_metric_names_match_spec(self):
        self.check_names(trace=1)

    def test_fails_without_program_sources(self):
        bare = run.build_dir().parent / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "net_loopback", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"metrics"', result.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
