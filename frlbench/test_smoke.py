#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, for a
handful of ops (run.py --smoke). Checks the result line's shape, that every
metric BENCHMARK.json names is printed with its unit, and that the run's
own correctness checks passed.

    python3 frlbench/test_smoke.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    assert out.returncode == 0, (
        f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])


def make_case(workload, trace):
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    return lambda self: self.check(workload, trace, expected)


for w in SPEC["workloads"]:
    for t in (0, 1):
        setattr(SmokeTest, f"test_{w['name']}_trace{t}", make_case(w["name"], t))

if __name__ == "__main__":
    unittest.main(verbosity=2)
