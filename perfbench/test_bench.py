#!/usr/bin/env python3
"""Tests for the whole-run benchmark (perfbench/run.py).

Runs every workload at reduced size on the default seed (1) and the
held-out seed (2), untraced and traced, and checks the result contract:
every declared metric appears with its unit, no run failed, the replay match
shares are 1.0, and a traced run's counts repeat exactly.

  python3 perfbench/test_bench.py        (from the repository root)
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = [1, 2]        # default seed, held-out seed
SCALE_FACTOR = "0.2"  # reduced size


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale-factor", SCALE_FACTOR],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkContract(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    r = bench(workload, seed, 0)
                    self.check(r, SPEC["end_to_end"])
                    for m in r["metrics"].values():
                        self.assertGreater(m["value"], 0)

    def test_per_layer(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    r = bench(workload, seed, 1)
                    self.check(r, SPEC["per_layer"])
                    m = r["metrics"]
                    self.assertEqual(m["sched.replay_match_share"]["value"], 1.0)
                    self.assertEqual(m["aqm.replay_match_share"]["value"], 1.0)
                    self.assertGreater(m["net.hops"]["value"], 0)
                    self.assertEqual(m["transport.flows_completed"]["value"],
                                     m["transport.flows_started"]["value"])

    def test_traced_counts_repeat(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        first = bench(WORKLOADS[0], SEEDS[0], 1)["metrics"]
        second = bench(WORKLOADS[0], SEEDS[0], 1)["metrics"]
        for name in counts:
            self.assertEqual(first[name]["value"], second[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
