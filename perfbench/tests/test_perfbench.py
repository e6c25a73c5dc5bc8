"""Tests for the benchmark itself: its percentile and failure maths (the C++
self-test), that the seed drives the generated inputs, and that every
workload prints exactly the metrics BENCHMARK.json names, with its units.

    python3 -m unittest discover -s perfbench/tests -v

Takes about a minute: it builds the benchmark and runs each workload once
for one second (the replay workload always replays the log twice).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digest(self, workload, seed):
        out = subprocess.run([self.binary, "--digest", "--workload", workload,
                              "--seed", str(seed)],
                             capture_output=True, text=True, check=True)
        return out.stdout.split()[0]

    def test_selftest_maths(self):
        subprocess.run([os.path.join(run.BUILD_DIR, "dsbench_selftest")],
                       check=True)

    def test_seed_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 1),
                                 self.digest(workload, 1))
                self.assertNotEqual(self.digest(workload, 1),
                                    self.digest(workload, 2))
        # serve-peak's log has 1 read per write, the others 4.
        self.assertNotEqual(self.digest("serve-light", 1),
                            self.digest("serve-peak", 1))

    def test_end_to_end_metrics_match_spec(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, line = run_bench(workload, 3, 1, 0)
                self.assertEqual(code, 0)
                self.assertTrue(line["correct"])
                self.assertEqual(set(line), {"correct", "attempted", "failed",
                                             "metrics"})
                self.assertEqual(
                    {k: m["unit"] for k, m in line["metrics"].items()},
                    expected)
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(line["failed"], 0)

    def test_per_layer_metrics_match_spec(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        code, line = run_bench("serve-light", 3, 1, 1)
        self.assertEqual(code, 0)
        self.assertTrue(line["correct"])
        self.assertEqual({k: m["unit"] for k, m in line["metrics"].items()},
                         expected)
        trace = os.path.join(run.OUT_DIR, "trace-serve-light.json")
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(any(e["name"] == "runtime.Run.batch" for e in events))

    def test_metric_check_rejects_mismatches(self):
        expected = {"a": "s", "b": "us"}
        good = {"a": {"value": 1.0, "unit": "s"}, "b": {"value": 2, "unit": "us"}}
        self.assertEqual(run.check_metrics(good, expected, trace=0), [])
        wrong_unit = dict(good, b={"value": 2, "unit": "ms"})
        self.assertTrue(run.check_metrics(wrong_unit, expected, trace=0))
        missing = {"a": good["a"]}
        self.assertTrue(run.check_metrics(missing, expected, trace=0))
        zero = dict(good, a={"value": 0, "unit": "s"})
        self.assertTrue(run.check_metrics(zero, expected, trace=0))
        self.assertEqual(run.check_metrics(zero, expected, trace=1), [])
        infinite = dict(good, a={"value": float("inf"), "unit": "s"})
        self.assertTrue(run.check_metrics(infinite, expected, trace=1))


if __name__ == "__main__":
    unittest.main()
