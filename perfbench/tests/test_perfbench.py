#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tiny size.

    python3 perfbench/tests/test_perfbench.py      # from the repository root

For every workload it checks that:
  * every metric named in BENCHMARK.json is printed with its unit, in the
    untraced (end-to-end) and the traced (per-layer) run;
  * no op fails (fail_frac == 0) and the run reports correct;
  * the simulated metrics and the output digest repeat exactly on a
    second run with the same seed;
  * the output digest changes under a different seed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SIMULATED = ("sim_p50_cycles", "sim_p99_cycles", "sim_jobs_per_mcycle",
             "sim_capacity_jpmc")


def run(workload, seed, trace):
    """Run one tiny benchmark; return (result, {'# <tag>' line: object})."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
           "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            tag, _, body = line[2:].partition(" ")
            tagged[tag] = json.loads(body)
    return json.loads(lines[-1]), tagged


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads(self):
        for w in BENCH["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                first, tags = run(name, 11, 0)
                again, tags_again = run(name, 11, 0)
                other, tags_other = run(name, 12, 0)
                traced, _ = run(name, 11, 1)

                self.check_metrics(first, BENCH["end_to_end"])
                self.check_metrics(traced, BENCH["per_layer"])
                for res in (first, traced):
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                self.assertEqual(tags["detail"]["fail_frac"], 0)
                self.assertIn("host_cpus", tags["host"])

                for key in SIMULATED:
                    self.assertEqual(first["metrics"][key]["value"],
                                     again["metrics"][key]["value"], key)
                self.assertEqual(tags["detail"]["digest"],
                                 tags_again["detail"]["digest"])
                self.assertNotEqual(tags["detail"]["digest"],
                                    tags_other["detail"]["digest"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(first["metrics"][m["name"]]["value"], 0,
                                       m["name"])


if __name__ == "__main__":
    unittest.main()
