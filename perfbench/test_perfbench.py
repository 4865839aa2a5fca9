#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload at a tiny size.

    python3 perfbench/test_perfbench.py

Checks that each workload prints exactly the metrics BENCHMARK.json names,
all finite, with no failed run, and that a deliberately corrupted LP state
after a Time Warp run is counted by the correctness gate.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    return provenance, json.loads(lines[-1])


class SelfCheck(unittest.TestCase):
    def test_metrics_present_finite_and_correct(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    prov, r = bench(workload, trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed",
                                              "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 9)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, v in r["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), name)
                    if trace:
                        self.assertEqual(r["metrics"]["error_rate"]["value"], 0)
                    else:
                        self.assertEqual(r["metrics"]["ok_rate"]["value"], 1)
                        self.assertGreater(r["metrics"]["setup_s"]["value"], 0)
                    for key in ("nproc", "cpu", "l2", "l3", "compiler",
                                "flags", "build_type", "source", "seed",
                                "repetitions"):
                        self.assertIn(key, prov)

    def test_gate_counts_a_corrupted_state(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, r = bench(workload, 0, "--corrupt")
                self.assertFalse(r["correct"])
                self.assertEqual(r["failed"], 1)
                ok = r["metrics"]["ok_rate"]["value"]
                self.assertAlmostEqual(ok, 1 - 1 / r["attempted"])


if __name__ == "__main__":
    unittest.main()
