#!/usr/bin/env python3
"""Tests for scripts/bench_compare.py, the perf gate.

Each case writes a small baseline and candidate in google-benchmark JSON
form to a temporary directory and checks the exit code: a regression past
the threshold fails, and so does a baseline benchmark that is missing from
the candidate unless the retired list names it with a reason.

Run directly (`python3 tests/test_bench_compare.py`) or via ctest
(hostnet_bench_compare).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(REPO, "scripts", "bench_compare.py")


def bench_json(entries):
    """Raw iteration entries; a name may repeat (one entry per repetition)."""
    return {"benchmarks": [{"name": n, "run_type": "iteration", "real_time": t}
                           for n, t in entries]}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def compare(self, base, cand):
        b = self.write("base.json", bench_json(base))
        c = self.write("cand.json", bench_json(cand))
        return subprocess.run([sys.executable, COMPARE, b, c],
                              capture_output=True, text=True)

    def test_all_present_and_within_threshold_passes(self):
        res = self.compare([("BM_A", 10.0), ("BM_B", 20.0)],
                           [("BM_A", 10.5), ("BM_B", 19.0)])
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)

    def test_regression_fails(self):
        res = self.compare([("BM_A", 10.0)], [("BM_A", 12.0)])
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        self.assertIn("REGRESSION", res.stdout)

    def test_one_outlier_repetition_does_not_flip_the_verdict(self):
        # The candidate's medians match the baseline; one slow repetition
        # (3x) would drag a mean 67% above it and fail the gate.
        res = self.compare([("BM_A", 10.0), ("BM_A", 10.2), ("BM_A", 9.8)],
                           [("BM_A", 10.1), ("BM_A", 30.0), ("BM_A", 9.9)])
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)
        # ... and one fast outlier cannot hide a real regression either.
        res = self.compare([("BM_A", 10.0), ("BM_A", 10.2), ("BM_A", 9.8)],
                           [("BM_A", 13.0), ("BM_A", 1.0), ("BM_A", 12.8)])
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        self.assertIn("REGRESSION", res.stdout)

    def test_missing_baseline_benchmark_fails(self):
        res = self.compare([("BM_A", 10.0), ("BM_Gone", 5.0)], [("BM_A", 10.0)])
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        self.assertIn("BM_Gone", res.stderr)

    def test_retired_benchmark_may_be_missing(self):
        self.write("retired.json", {"retired": {"BM_Gone": "merged into BM_A"}})
        res = self.compare([("BM_A", 10.0), ("BM_Gone", 5.0)], [("BM_A", 10.0)])
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)
        self.assertIn("merged into BM_A", res.stdout)

    def test_retired_entry_needs_a_reason(self):
        self.write("retired.json", {"retired": {"BM_Gone": " "}})
        res = self.compare([("BM_A", 10.0), ("BM_Gone", 5.0)], [("BM_A", 10.0)])
        self.assertEqual(res.returncode, 2, msg=res.stdout + res.stderr)


if __name__ == "__main__":
    unittest.main()
