#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
simulator and the measuring binary from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is not
set; later calls only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's result object.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("invoke_idct", "invoke_convert", "serve_open", "fleet_warm")
# A run measures for --seconds and then finishes its round, capacity
# ladder and (traced) micros; anything far past that is a hang.
GRACE_S = 150


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configure (once) and build the binary; return its path or None."""
    src = HERE.parent / "src"
    if not (src / "sim" / "kernel.hpp").is_file():
        print(f"run.py: simulator sources not found under {src}", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = out / "ouessant_perf"
    return binary if binary.is_file() else None


def commit_id():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    if not (Path.cwd() / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    binary = build()
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--commit", commit_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=args.seconds + GRACE_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
