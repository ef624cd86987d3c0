#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md), stages in run order:
#   1. plain build + full ctest
#   2. the docs gate (scripts/check_docs.sh): every src/ subdir is in
#      docs/architecture.md, every ouessant_bench flag is documented in
#      EXPERIMENTS.md, every path the docs reference exists
#   3. the golden stage: one full `ouessant_bench --jobs $(nproc)` sweep,
#      and every committed row of BENCH_sweep.json, BENCH_serve.json,
#      BENCH_chain.json, BENCH_dpr.json, BENCH_fleet.json and
#      BENCH_speed.json must equal that run metric for metric, except a
#      named list of host wall-clock keys — a change to a simulated
#      result re-records its file in the same change. For sim_speed that pins the deterministic
#      fast-path engagement counts (batched bus chunks, decode-cache
#      hits/misses, on and off), so a fast path that stops engaging fails
#      here on any host; its cycles/sec figures are host time and exempt.
#      Every sim_speed point also fails itself unless the optimized and
#      the seed configuration (ungated kernel, per-beat bus, no decode
#      cache) agree on the simulated clock — idle_dft is the gated-vs-
#      ungated identity check on an idle-heavy workload
#   4. ASan+UBSan build + full ctest (catches the iterator-invalidation
#      class of kernel bugs — e.g. mid-tick component removal — that a
#      plain build can pass by luck)
#   5. the snapshot-determinism stage: the mid-run restore bit-identity
#      proofs (E1, serve, fault-armed) re-run on the sanitizer build,
#      then the bench-level --snapshot/--restore flow round-trips a
#      serve_mixed image through disk
#   6. the slot-farm stage: test_dpr on the sanitizer build (exact ICAP
#      cycle accounting, preemptive swaps, cache LRU), then the DPRF
#      scenarios with a guard that the demand-driven swap scheduler
#      beats static slot assignment on the shifted demand mix
#   7. the chain stage: test_chain on the sanitizer build (CHAIN CSR
#      semantics, ChainLink timing, linked vs store-and-forward
#      bit-identity, the mid-batch snapshot round trip), then the CHAIN
#      scenarios with a guard that the p2p linked mode beats the
#      store-and-forward ablation on cycles and bus beats
#   8. the TSan stage: the full scenario sweep at --jobs $(nproc) —
#      every (scenario, grid point) job executes on a worker thread, so
#      any mutable state shared between "isolated" simulations shows up
#      as a data race here (the no-mutable-statics rule of DESIGN.md) —
#      then the parallel fleet shards: fleet_obs_guard (16 fault-armed
#      shards, every observer armed) and the Fleet.* tests of
#      test_snapshot, whose shards run on run_fleet's worker threads
#   9. the TSan svc soak: one OffloadService per worker thread on a
#      10k-job closed loop; any race or lost/rejected job fails the run
#  10. the trace-overhead guard: one serve workload traced and untraced
#      must be bit-identical (sim clock + Stats::all() + latency
#      histograms) with traced host time within 2x untraced, and the
#      written trace must round-trip through the ouessant_trace CLI
#  11. the fleet-observability stage: a 16-shard fault-armed fleet run
#      twice, unarmed vs fully armed (quantile sketches + SLO monitors +
#      a flight recorder, i.e. a bounded event tracer on every shard's
#      whole stack) — every shard must be bit-identical and the armed
#      run within 1.5x unarmed host time; then a python guard re-checks
#      the sketch quantiles against the exact histogram within the
#      documented relative-error bound, and an auto-dumped flight trace
#      must round-trip through `ouessant_trace flight` and report its
#      trigger
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== tier-1: plain build + ctest ===="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==== tier-1: docs consistency gate ===="
scripts/check_docs.sh build/bench/ouessant_bench

echo "==== tier-1: committed BENCH goldens ===="
# One full sweep feeds every golden: the sweep record itself plus the
# five per-family files, each checked against the same fresh run.
./build/bench/ouessant_bench --jobs "$(nproc)" \
  --json build/bench/golden_sweep.json > /dev/null
python3 - build/bench/golden_sweep.json BENCH_sweep.json BENCH_serve.json \
  BENCH_chain.json BENCH_dpr.json BENCH_fleet.json BENCH_speed.json <<'EOF'
import json, sys
# Host wall-clock metrics: the only keys allowed to differ run to run.
HOST_TIME_KEYS = {"cold_boot_ms", "fork_ms_per_shard", "warmboot_speedup"}
# sim_speed's cycles/sec and their ratio are host time too (only there:
# other families' "speedup" is a simulated-cycle ratio and stays pinned).
SIM_SPEED_HOST_KEYS = {"opt_cps", "base_cps", "speedup"}
def rows(path):
    return {(r["scenario"], json.dumps(r["params"], sort_keys=True)):
            r["metrics"] for r in json.load(open(path))["results"]}
fresh = rows(sys.argv[1])
stale = []
for path in sys.argv[2:]:
    committed, bad = rows(path), []
    for key, want in committed.items():
        got = fresh.get(key)
        if got is None:
            bad.append(f"{key}: row missing from the fresh run")
            continue
        host = HOST_TIME_KEYS | (SIM_SPEED_HOST_KEYS
                                 if key[0] == "sim_speed" else set())
        for m in sorted((set(want) | set(got)) - host):
            if want.get(m) != got.get(m):
                bad.append(f"{key} {m}: committed {want.get(m)} "
                           f"fresh {got.get(m)}")
    if bad:
        stale.append(f"{path} is stale:\n  " + "\n  ".join(bad))
    else:
        print(f"  {path}: {len(committed)} rows match")
if stale:
    sys.exit("golden guard: " + "\ngolden guard: ".join(stale))
EOF
echo "golden guard OK"

echo "==== tier-1: ASan+UBSan build + ctest ===="
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake -B build-san -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
cmake --build build-san -j
ctest --test-dir build-san --output-on-failure -j "$(nproc)"

echo "==== tier-1: snapshot determinism (ASan+UBSan) ===="
# Snapshot at cycle C, restore into a fresh stack, run to the end: the
# bit-identity proofs of tests/test_snapshot.cpp, on the build where a
# stale pointer or type-punned read in a restore path would be fatal.
./build-san/tests/test_snapshot --gtest_filter='MidRun.*:Fleet.*'
# And the on-disk flow end to end: save a serve_mixed image with
# --snapshot, warm-boot a second run from it with --restore.
./build-san/bench/ouessant_bench --filter serve_mixed \
  --snapshot build-san/bench/tier1 > /dev/null
./build-san/bench/ouessant_bench --filter serve_mixed \
  --restore build-san/bench/tier1_serve_mixed_0.snap > /dev/null
echo "snapshot determinism OK"

echo "==== tier-1: reconfigurable slot farm (DPRF) ===="
# The exact ICAP-timing and swap-scheduler proofs on the sanitizer build
# (a use-after-free during a preemptive swap would be fatal here), then
# the subsystem's headline claim on the plain build: under the shifted
# demand mix the demand-driven scheduler must beat static residency.
# The committed BENCH_dpr.json is refreshed by scripts/run_experiments.sh.
./build-san/tests/test_dpr
./build/bench/ouessant_bench --filter DPRF \
  --json build/bench/BENCH_dpr.json > /dev/null
python3 - build/bench/BENCH_dpr.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
av = {r["params"]["policy"]: r["metrics"]["completed"] / r["metrics"]["jobs"]
      for r in doc["results"] if r["scenario"] == "dpr_adapt"}
print("  dpr_adapt availability: " +
      ", ".join(f"{p}={av[p]:.3f}" for p in sorted(av)))
if av["hysteresis"] <= av["static"]:
    sys.exit("dpr guard: the swap scheduler lost to static slot "
             f"assignment ({av['hysteresis']:.3f} <= {av['static']:.3f})")
print("dpr guard OK")
EOF

echo "==== tier-1: accelerator chaining (CHAIN) ===="
# The conduit-timing and session-protocol proofs on the sanitizer build
# (a dangling FIFO binding or a mis-restored staging register would be
# fatal here), then the subsystem's headline claim on the plain build:
# the p2p linked mode must beat the store-and-forward ablation on both
# cycles and bus beats at equal payload. The committed BENCH_chain.json
# is refreshed by scripts/run_experiments.sh.
./build-san/tests/test_chain
./build/bench/ouessant_bench --filter CHAIN \
  --json build/bench/BENCH_chain.json > /dev/null
python3 - build/bench/BENCH_chain.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = [r for r in doc["results"] if r["scenario"] == "chain_traffic"]
if not rows:
    sys.exit("chain guard: no chain_traffic rows")
for r in rows:
    m, batch = r["metrics"], r["params"]["batch"]
    print(f"  batch {batch}: linked {m['linked_cycles']} cycles / "
          f"{m['linked_beats']} beats | store_forward {m['sf_cycles']} "
          f"cycles / {m['sf_beats']} beats")
    if m["linked_cycles"] >= m["sf_cycles"] or \
       m["linked_beats"] >= m["sf_beats"]:
        sys.exit(f"chain guard: linked lost to store-and-forward at "
                 f"batch {batch}")
print("chain guard OK")
EOF

echo "==== tier-1: TSan parallel sweep + parallel fleet shards ===="
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}"
cmake --build build-tsan -j --target ouessant_bench
./build-tsan/bench/ouessant_bench --jobs "$(nproc)" > /dev/null
# Parallel fleet shards: run_fleet drives every shard on its own worker
# thread, so a shard that touches anything but its own stack (or the
# read-only image and FleetConfig) races here.
cmake --build build-tsan -j --target fleet_obs_guard test_snapshot
./build-tsan/bench/fleet_obs_guard build-tsan/bench/fleet_obs_guard.json \
  build-tsan/bench/fleet_obs_guard
./build-tsan/tests/test_snapshot --gtest_filter='Fleet.*'

echo "==== tier-1: TSan svc soak (10k-job closed loop, 4 OCPs/shard) ===="
# One OffloadService per worker thread: races between supposedly
# isolated service instances (shared mutable statics anywhere under
# src/svc/) surface here, and any lost/rejected job fails the run.
cmake --build build-tsan -j --target svc_soak
./build-tsan/bench/svc_soak --jobs "$(nproc)" --total 10000

echo "==== tier-1: trace-overhead guard + ouessant_trace round-trip ===="
cmake --build build -j --target trace_guard ouessant_trace
./build/bench/trace_guard build/bench/trace_guard.trace.json
./build/tools/ouessant_trace build/bench/trace_guard.trace.json --top 5 \
  > /dev/null
./build/tools/ouessant_trace build/bench/trace_guard.trace.json --json \
  --top 5 > /dev/null
./build/tools/ouessant_trace metrics \
  build/bench/trace_guard.trace.json.metrics.json > /dev/null
echo "trace round-trip OK"

echo "==== tier-1: fleet observability guard ===="
# Armed-vs-unarmed bit-identity on a 16-shard fault-armed fleet, the
# 1.5x host budget, and the sketch-vs-exact quantile table (checked
# below against the documented bound). The armed fleet's hung RAC makes
# every shard dump a flight trace; shard 0's must parse back through
# the flight subcommand.
cmake --build build -j --target fleet_obs_guard
./build/bench/fleet_obs_guard build/bench/fleet_obs_guard.json \
  build/bench/fleet_obs_guard
python3 - build/bench/fleet_obs_guard.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
alpha = doc["alpha"]
bad = []
for q in doc["quantiles"]:
    # DDSketch guarantee: |sketch - exact| <= alpha * exact, plus one
    # cycle of integer-rounding slack.
    err = abs(q["sketch"] - q["exact"])
    bound = alpha * q["exact"] + 1.0
    print(f"  p{q['p']:<5} sketch {q['sketch']:8d} exact {q['exact']:8d} "
          f"|err| {err:.0f} (bound {bound:.1f})")
    if err > bound:
        bad.append(q["p"])
if bad:
    sys.exit(f"sketch guard: quantiles {bad} outside the alpha={alpha} bound")
print(f"sketch guard OK ({doc['count']} samples within alpha={alpha})")
EOF
flight_report=$(./build/tools/ouessant_trace flight \
  build/bench/fleet_obs_guard_shard0.flight.json --top 5)
grep -q "flight trigger at cycle" <<<"${flight_report}" ||
  { echo "flight guard: shard 0's dump holds no trigger instant"; exit 1; }
./build/tools/ouessant_trace slo build/bench/fleet_slo.slo.json \
  > /dev/null 2>&1 || true  # rendered when the FLEET sweep has run
echo "fleet observability guard OK"

echo "tier-1 OK"
