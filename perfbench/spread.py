#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark on this host.

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--workloads a,b] [--out FILE]

Runs the benchmark --runs times per workload, each with another seed,
exactly as BENCHMARK.json's command and run_seconds give it. For every
end-to-end metric it prints the median and the spread (distance between
the first and third quartile, statistics.quantiles(n=4), as a share of
the median) next to the metric's bound. With --out it writes the same
figures, plus the host record of the first run, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} reported a failure:\n{out.stdout[-3000:]}")
    host = next((json.loads(l[len("# host "):]) for l in lines
                 if l.startswith("# host ")), {})
    for per_run in ("workload", "seed", "seconds", "trace"):
        host.pop(per_run, None)
    return result, host, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    report = {"runs": args.runs, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for i in range(args.runs):
            result, host, wall = run_once(bench, name, args.seed0 + i)
            report.setdefault("host", host)
            walls.append(wall)
            for key in values:
                values[key].append(result["metrics"][key]["value"])
        rows = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            rows[m["name"]] = {"median": med, "spread": round(spread, 4),
                               "bound": m["bound"], "min": min(v),
                               "max": max(v)}
            print(f"{name:15s} {m['name']:20s} median {med:<12.6g} "
                  f"spread {spread:.4f} bound {m['bound']}")
        print(f"{name:15s} wall per run: max {max(walls):.1f} s", flush=True)
        report["workloads"][name] = {"metrics": rows, "max_wall_s": max(walls)}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
