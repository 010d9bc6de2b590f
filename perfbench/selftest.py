#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and expects all
output checks to pass; then corrupts one expected value and expects the
failure to be counted. Also checks that traced counts repeat exactly and
that the per-layer diff printer reads the traced output.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()
        cls.tmp = tempfile.TemporaryDirectory(dir=run.build_dir())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def drive(self, workload, trace, *extra, out=None):
        out = out or self.tmp.name
        proc = subprocess.run(
            [self.driver, "--workload", workload, "--seed", "7",
             "--seconds", "0", "--trace", str(trace), "--size", "tiny",
             "--out-dir", out, *extra],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_tiny_workloads_pass_every_check(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = self.drive(workload, trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 3)

    def test_corrupted_expected_value_counts_as_failure(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = self.drive(workload, trace, "--corrupt")
                    self.assertFalse(r["correct"])
                    self.assertGreaterEqual(r["failed"], 1)
                    self.assertLessEqual(r["failed"], r["attempted"])

    def test_traced_counts_repeat_and_diff(self):
        dirs = [os.path.join(self.tmp.name, side) for side in ("a", "b")]
        counts = []
        for d in dirs:
            os.makedirs(d)
            r = self.drive("paper_tlsrr", 1, out=d)
            counts.append({k: v["value"] for k, v in r["metrics"].items()
                           if v["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["tc.commands"], 0)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "diff.py"), *dirs],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("simcore.events", proc.stdout)
        self.assertIn("simcore.loop_s", proc.stdout)


if __name__ == "__main__":
    unittest.main()
