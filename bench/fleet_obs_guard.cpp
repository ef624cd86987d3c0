// fleet_obs_guard — the tier-1 fleet-observability invariants:
//
//   1. PASSIVITY AT FLEET SCALE. The same 16-shard, fault-armed fleet
//      runs twice from the same template image: once unarmed and once
//      with every observability arm live (per-class SLO burn-rate
//      monitors, and a flight recorder: a bounded event tracer attached
//      to each shard's whole stack). Every
//      shard's simulated clock, job counts and per-job latency digest
//      must be bit-identical across the two runs — telemetry may cost
//      host time, never simulated time.
//   2. OVERHEAD. The armed run must finish within 1.5x the unarmed
//      host time plus a fixed slack floor (the floor keeps short runs
//      from flaking on scheduler noise).
//   3. SKETCH FIDELITY. Both runs also stream latencies into an exact
//      merged histogram; the guard writes the sketch and exact
//      quantiles side by side to argv[1] so scripts/run_tier1.sh can
//      assert the documented relative-error bound with an independent
//      checker.
//   4. FLIGHT DUMPS. The armed fleet carries a permanently hung RAC,
//      so every shard must trip its flight recorder; the dumps land at
//      argv[2]_shard<i>.flight.json for ouessant_trace to round-trip.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fleet/fleet.hpp"
#include "obs/slo.hpp"

namespace {

using namespace ouessant;

constexpr u32 kShards = 16;
constexpr double kHostFactor = 1.5;
constexpr double kHostSlackSeconds = 0.25;

fleet::FleetConfig make_config() {
  fleet::FleetConfig cfg;
  cfg.shards = kShards;
  cfg.base_seed = 0xF1EE'0B55ull;
  cfg.service.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2}};
  cfg.service.queue_depth = 128;
  // Worker 0's RAC swallows every completion; the watchdog + quarantine
  // machinery is what trips the flight recorders. kIdct stays out of
  // the warm-up so the hang first manifests inside each shard (the
  // template would otherwise snapshot the worker already quarantined).
  cfg.service.faults.add(
      {.kind = fault::FaultKind::kRacHang, .ocp = 0, .prob = 1.0});
  cfg.service.retry = svc::RetryPolicy{.max_attempts = 4,
                                       .backoff_base = 2048,
                                       .backoff_mult = 2,
                                       .quarantine_after = 2,
                                       .watchdog_cycles = 16'384};
  cfg.warmup.jobs = 160;
  cfg.warmup.mean_gap = 200.0;
  cfg.warmup.kinds = {svc::JobKind::kDft, svc::JobKind::kFir};
  cfg.shard_load = cfg.warmup;
  cfg.shard_load.jobs = 96;
  cfg.shard_load.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft,
                          svc::JobKind::kFir};
  cfg.shard_load.high_fraction = 0.25;
  // The armed-vs-unarmed digest comparison below IS the passivity
  // proof; run_fleet's own redo pass would only repeat it.
  cfg.verify_reproducible = false;
  // Exact histogram in BOTH runs: identical samples is one more
  // identity check, and the sketch-vs-exact quantile table needs it.
  cfg.obs.keep_exact_histogram = true;
  return cfg;
}

struct RunSnapshot {
  fleet::FleetReport rep;
  double host_seconds = 0.0;
};

RunSnapshot run_once(bool armed, const std::string& flight_stem) {
  fleet::FleetConfig cfg = make_config();
  if (armed) {
    cfg.obs.slo = true;
    cfg.obs.slo_config.classes = {
        obs::SloObjective{
            .name = "high", .latency_cycles = 20'000, .target = 0.99},
        obs::SloObjective{
            .name = "normal", .latency_cycles = 60'000, .target = 0.95}};
    cfg.obs.slo_config.long_window = 40'000;
    cfg.obs.slo_config.short_window = 5'000;
    cfg.obs.flight = true;
    cfg.obs.flight_capacity = 1024;
    cfg.obs.flight_dump_stem = flight_stem;
  }
  const auto t0 = std::chrono::steady_clock::now();
  RunSnapshot snap;
  snap.rep = fleet::run_fleet(cfg);
  snap.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return snap;
}

void write_quantile_table(const std::string& path,
                          const fleet::FleetReport& rep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw SimError("fleet_obs_guard: cannot write " + path);
  }
  const std::vector<double> ps = {50.0, 90.0, 95.0, 99.0, 99.9};
  std::fprintf(f, "{\n  \"schema\": \"ouessant.fleet_obs_guard.v1\",\n");
  std::fprintf(f, "  \"alpha\": %.9g,\n", rep.e2e_sketch.relative_error());
  std::fprintf(f, "  \"count\": %llu,\n",
               static_cast<unsigned long long>(rep.e2e_sketch.count()));
  std::fprintf(f, "  \"quantiles\": [\n");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::fprintf(
        f, "    {\"p\": %.9g, \"sketch\": %llu, \"exact\": %llu}%s\n", ps[i],
        static_cast<unsigned long long>(rep.e2e_sketch.percentile(ps[i])),
        static_cast<unsigned long long>(rep.exact_e2e.percentile(ps[i])),
        i + 1 < ps.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string table_path =
      argc > 1 ? argv[1] : "fleet_obs_guard.json";
  const std::string flight_stem =
      argc > 2 ? argv[2] : "fleet_obs_guard";
  try {
    const RunSnapshot bare = run_once(false, "");
    const RunSnapshot armed = run_once(true, flight_stem);

    int failures = 0;
    for (u32 i = 0; i < kShards; ++i) {
      const fleet::ShardResult& b = bare.rep.shard_results[i];
      const fleet::ShardResult& a = armed.rep.shard_results[i];
      if (b.digest != a.digest || b.report.start != a.report.start ||
          b.report.end != a.report.end ||
          b.report.completed != a.report.completed ||
          b.report.rejected != a.report.rejected ||
          b.report.failed != a.report.failed) {
        std::fprintf(stderr,
                     "fleet_obs_guard: shard %u diverged under arming: "
                     "digest %016llx/%016llx end %llu/%llu "
                     "completed %llu/%llu\n",
                     i, static_cast<unsigned long long>(b.digest),
                     static_cast<unsigned long long>(a.digest),
                     static_cast<unsigned long long>(b.report.end),
                     static_cast<unsigned long long>(a.report.end),
                     static_cast<unsigned long long>(b.report.completed),
                     static_cast<unsigned long long>(a.report.completed));
        ++failures;
      }
    }
    if (!(bare.rep.e2e_sketch == armed.rep.e2e_sketch)) {
      std::fprintf(stderr,
                   "fleet_obs_guard: merged sketches diverged under arming\n");
      ++failures;
    }
    if (bare.rep.exact_e2e.samples() != armed.rep.exact_e2e.samples()) {
      std::fprintf(stderr,
                   "fleet_obs_guard: exact latency streams diverged\n");
      ++failures;
    }
    if (bare.rep.peak_retained_samples != 0 ||
        armed.rep.peak_retained_samples != 0) {
      std::fprintf(stderr,
                   "fleet_obs_guard: raw samples retained in shard reports\n");
      ++failures;
    }
    if (armed.rep.flight_triggers != kShards ||
        armed.rep.flight_dumps.size() != kShards) {
      std::fprintf(stderr,
                   "fleet_obs_guard: expected %u flight dumps, got %llu "
                   "triggers / %zu dumps\n",
                   kShards,
                   static_cast<unsigned long long>(armed.rep.flight_triggers),
                   armed.rep.flight_dumps.size());
      ++failures;
    }
    const double budget =
        kHostFactor * bare.host_seconds + kHostSlackSeconds;
    if (armed.host_seconds > budget) {
      std::fprintf(stderr,
                   "fleet_obs_guard: observability overhead over budget: "
                   "unarmed %.3fs, armed %.3fs, budget %.3fs\n",
                   bare.host_seconds, armed.host_seconds, budget);
      ++failures;
    }

    write_quantile_table(table_path, armed.rep);

    std::printf(
        "fleet_obs_guard: %u shards, %llu jobs, sketch count %llu "
        "(%zu buckets) | unarmed %.3fs, armed %.3fs (budget %.3fs) | "
        "%llu flight dumps | %s\n",
        kShards, static_cast<unsigned long long>(armed.rep.total_jobs),
        static_cast<unsigned long long>(armed.rep.e2e_sketch.count()),
        armed.rep.e2e_sketch.bucket_count(), bare.host_seconds,
        armed.host_seconds, budget,
        static_cast<unsigned long long>(armed.rep.flight_triggers),
        failures == 0 ? "OK" : "FAIL");
    std::printf("quantile table written to %s\n", table_path.c_str());
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_obs_guard: %s\n", e.what());
    return 2;
  }
}
