#!/usr/bin/env python3
"""Tests of the fleet benchmark itself.

  python3 perfbench/test_perfbench.py

Checks BENCHMARK.json and workloads.json against the benchmark's rules,
runs the C++ self-test (span fold, report digest, name mapping), and runs
every workload once per trace level so that every emitted metric name is
checked against the grammar and BENCHMARK.json.
"""

import json
import re
import subprocess
import sys
import unittest

import run

SPEC = run.load_json(run.ROOT / "BENCHMARK.json")
WORKLOADS = run.load_json(run.HERE / "workloads.json")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpecTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])

    def test_metric_names_and_units(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], run.NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_workloads_documented(self):
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, list(WORKLOADS["workloads"]))
        for name, w in WORKLOADS["workloads"].items():
            self.assertRegex(name, run.NAME_RE)
            self.assertEqual(set(w), {"rationale", "loads", "bypasses", "config", "digest"})
            self.assertRegex(w["digest"], r"^[0-9a-f]{16}$")
            self.assertTrue(w["loads"] and w["bypasses"] and w["config"])


class ContractMetricsTest(unittest.TestCase):
    SPEC_METRICS = [{"name": "run_s", "unit": "s"}, {"name": "rows_per_s", "unit": "1/s"}]

    def test_attaches_units(self):
        out = run.contract_metrics({"run_s": 1.5, "rows_per_s": 10.0}, self.SPEC_METRICS)
        self.assertEqual(out["run_s"], {"value": 1.5, "unit": "s"})

    def test_rejects_missing_extra_and_bad_names(self):
        with self.assertRaises(ValueError):
            run.contract_metrics({"run_s": 1.5}, self.SPEC_METRICS)
        with self.assertRaises(ValueError):
            run.contract_metrics({"run_s": 1.5, "rows_per_s": 1.0, "x": 1.0},
                                 self.SPEC_METRICS)
        with self.assertRaises(ValueError):
            run.contract_metrics({"run_s": 1.5, "stage:clean(hampel)": 1.0},
                                 self.SPEC_METRICS)


class BuiltBenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_selftest(self):
        proc = subprocess.run([str(run.BUILD / "perfbench_selftest")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_every_workload_emits_the_declared_metrics(self):
        for workload in WORKLOADS["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                         "--seed", str(WORKLOADS["default_seed"]), "--seconds", "1",
                         "--trace", str(trace)],
                        capture_output=True, text=True, check=False, cwd=run.ROOT)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(m["name"] for m in spec))
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
