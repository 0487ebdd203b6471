#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload for one second (at least one repetition of each kind)
through run.py, checks the result line against BENCHMARK.json, checks that
a wrong digest reference fails operations instead of crashing, and that no
benchmark file is hidden by the repository's .gitignore.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXTRA = json.loads((HERE / "spec.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (perfbench/run.py: build() and BINARY)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_spec_covers_every_name(self):
        self.assertEqual(set(EXTRA["workloads"]), set(WORKLOADS))
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        self.assertTrue(e2e <= set(EXTRA["end_to_end"]))
        self.assertEqual(set(EXTRA["per_layer"]), layers)
        for row in EXTRA["per_layer"].values():
            self.assertEqual(set(row), {"at", "moves", "on", "not_on"})
            self.assertTrue(set(row["moves"]) <= e2e | layers)
            self.assertTrue(set(row["on"]) <= set(WORKLOADS))


class MinimalRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        table = "\n".join(lines[:-1])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            # The readable table names it with its unit and sample count. A
            # per-layer metric may read '-' (does not apply); an end-to-end
            # metric must have been measured.
            value, samples = (r"\S+", r"\d+") if trace else (r"-?\d+\.\d+",
                                                             r"[1-9]\d*")
            self.assertRegex(
                table, rf"(?m)^{re.escape(m['name'])}\s+{value}\s+"
                       rf"{re.escape(m['unit'])}\s+{samples}")

    def test_each_workload_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0)

    def test_each_workload_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1)

    def test_wrong_digest_fails_operations(self):
        self.assertTrue(bench.build())
        proc = subprocess.run(
            [str(bench.BINARY), "--workload", "router_tcp", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--digest", "0123456789abcdef"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])


class Committed(unittest.TestCase):
    def test_no_benchmark_file_is_ignored(self):
        inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"],
                                cwd=ROOT, capture_output=True, text=True)
        if inside.returncode != 0:
            self.skipTest("not a git checkout")
        files = [str(p.relative_to(ROOT)) for p in HERE.rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts]
        files.append("BENCHMARK.json")
        ignored = subprocess.run(["git", "check-ignore", "--no-index", *files],
                                 cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(ignored.stdout.strip(), "",
                         "benchmark files matched by .gitignore")


if __name__ == "__main__":
    unittest.main()
