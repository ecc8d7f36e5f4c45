#!/usr/bin/env python3
"""Smoke tests of the benchmark driver.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py, then runs every workload with --smoke
(a few messages) in both modes and checks the output contract.
"""
import importlib.util
import json
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def drive(workload, seed=1, trace=0, extra=()):
    """Runs the driver in smoke mode; returns (exit code, stdout)."""
    spans = os.path.join(run.BUILD, "spans-test-%s.csv" % workload)
    cmd = [run.EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.05", "--trace", str(trace), "--smoke",
           "--spans", spans, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("# digest "):
            return line.split()[-1]
    raise AssertionError("no digest line")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_contract(self, workload, trace, listed):
        code, out = drive(workload, trace=trace)
        self.assertEqual(code, 0, out[-3000:])
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        printed = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and not line.startswith(("#", "{")):
                printed[parts[0]] = parts[2]
        for name, unit in want.items():
            self.assertEqual(printed.get(name), unit, name)

    def test_end_to_end_metrics_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_contract(w, 0, SPEC["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_contract(w, 1, SPEC["per_layer"])

    def test_same_seed_same_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = digest(drive(w, seed=7)[1])
                self.assertEqual(first, digest(drive(w, seed=7)[1]))

    def test_other_seed_changes_hostile_wan(self):
        self.assertNotEqual(digest(drive("hostile_wan", seed=1)[1]),
                            digest(drive("hostile_wan", seed=2)[1]))

    def test_bad_arguments_exit_2(self):
        for extra in (["--workload", "nope"], ["--bogus", "1"]):
            code, out = drive("bulk_2r", extra=extra)
            self.assertEqual(code, 2)
            self.assertNotIn('"correct"', out)

    def test_fails_without_sources(self):
        bare = os.path.join(run.BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "bulk_2r", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
