#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (about a minute).

    python3 perfbench/test_bench.py        # from the repository root
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", str(trace), "--smoke",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


class Benchmark(unittest.TestCase):
    def test_every_listed_metric_is_a_finite_number_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, tier in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    listed = {m["name"]: m["unit"] for m in SPEC[tier]}
                    self.assertEqual(set(result["metrics"]), set(listed))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], listed[name])
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertNotEqual(m["value"], 0, name)

    def test_a_never_inserted_key_counts_as_a_failed_lookup(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--absent-lookups", "3")
                self.assertGreaterEqual(result["failed"], 3)
                ratio = result["metrics"]["lookup_success_ratio"]["value"]
                self.assertLess(ratio, 1)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])

    def test_without_the_program_it_fails_and_prints_no_result(self):
        bare = os.path.join(ROOT, ".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result = run(WORKLOADS[0], 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotIn(code, (0, 1))
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
