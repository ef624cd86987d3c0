// FLEET (fleet shard layer) — warm-boot cloning under measurement.
//
// fleet_warmboot: boot a template service stack cold, serve a warm-up
// workload, snapshot it, then fork >= 8 shards from the image
// (construction + restore + warm begin, serially) and drive them in
// parallel, one shard per fleet::run_fleet worker claim, each with its
// own workload seed. run_fleet folds the shard reports in the serial
// round-robin retirement order, by (laps, index), so every simulated
// metric is the same at any thread count. The run records the
// aggregated fleet metrics (total throughput, availability,
// sketch-derived end-to-end quantiles), the image size, and the
// wall-time comparison that
// justifies the machinery: cold_boot_ms (template build + warm-up) vs
// fork_ms_per_shard (what each additional fleet member actually paid).
// run_fleet's built-in reproducibility check — a second clone at shard
// 0's seed must replay its report bit-for-bit — is a hard pass
// condition here. Latencies stream into mergeable quantile sketches as
// shards retire; the scenario asserts zero raw samples were retained
// (the O(jobs) -> O(sketch) memory fix).
//
// fleet_slo: the same fleet with every observability arm enabled and
// the fault injector live — bus ERROR beats at a fixed rate plus a
// permanently hung RAC on every shard. The SLO monitor classifies each
// job against per-tenant-class objectives, multi-window burn-rate
// alerts fire as errors land, flight recorders trip on the
// quarantine/watchdog path, and the merged ouessant.slo.v1 report plus
// per-shard flight dumps are written under build/bench/ for
// ouessant_trace to render. Passivity is enforced by run_fleet's
// reproducibility redo, which replays shard 0 UNARMED and must match
// the armed run's digest bit-for-bit.
//
// Host wall-clock readings make both scenarios non-deterministic in the
// --compare-jobs sense; the simulated-side metrics are still seeded and
// exactly repeatable.
#include "scenarios.hpp"

#include <string>

#include "fault/plan.hpp"
#include "fleet/fleet.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"

namespace ouessant::scenarios {
namespace {

/// Three heterogeneous batching workers behind a deep queue — the fleet
/// template every scenario in this family clones.
fleet::FleetConfig fleet_base(const exp::RunContext& ctx, u32 shards) {
  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.base_seed = ctx.seed;
  cfg.service.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2}};
  cfg.service.queue_depth = 128;
  // Warm-up: enough traffic to install every worker's microcode,
  // exercise each IRQ path and reach steady state before the image is
  // taken — the serving time a forked shard gets for free.
  cfg.warmup.jobs = 240;
  cfg.warmup.mean_gap = 200.0;
  cfg.warmup.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft,
                      svc::JobKind::kFir};
  // Per-shard serving load (seed overridden per shard by run_fleet).
  cfg.shard_load = cfg.warmup;
  cfg.shard_load.jobs = 96;
  cfg.shard_load.high_fraction = 0.25;
  return cfg;
}

/// Flatten the sketch-derived latency block with LatencyStats-compatible
/// metric names (e2e_p50/_p95/... so FLEET rows read like every other
/// experiment), plus the sketch's own footprint.
void add_sketch_metrics(const obs::QuantileSketch& s, exp::Result& result) {
  result.add_metric("e2e_p50", s.percentile(50.0));
  result.add_metric("e2e_p95", s.percentile(95.0));
  result.add_metric("e2e_p99", s.percentile(99.0));
  result.add_metric("e2e_p999", s.percentile(99.9));
  result.add_metric("e2e_mean", s.mean());
  result.add_metric("e2e_max", s.max());
  result.add_metric("sketch_buckets", static_cast<u64>(s.bucket_count()));
}

/// Shared pass/fail block + metric flattening for a fleet report.
void add_fleet_metrics(const fleet::FleetReport& rep, exp::Result& result) {
  result.add_metric("shards", static_cast<u64>(rep.shards));
  result.add_metric("total_jobs", rep.total_jobs);
  result.add_metric("completed", rep.total_completed);
  result.add_metric("rejected", rep.total_rejected);
  result.add_metric("failed", rep.total_failed);
  result.add_metric("availability_pct", 100.0 * rep.availability());
  result.add_metric("throughput_jpmc", rep.throughput_jpmc);
  add_sketch_metrics(rep.e2e_sketch, result);
  result.add_metric("peak_retained_samples", rep.peak_retained_samples);
  result.add_metric("snapshot_bytes", rep.snapshot_bytes);
  result.add_metric("cold_boot_ms", rep.cold_boot_ms);
  result.add_metric("fork_ms_per_shard", rep.fork_ms_per_shard);
  result.add_metric("warmboot_speedup",
                    rep.fork_ms_per_shard > 0.0
                        ? rep.cold_boot_ms / rep.fork_ms_per_shard
                        : 0.0);
  result.add_metric("reproducible", static_cast<u64>(rep.reproducible));

  if (!rep.reproducible) {
    result.fail("shard replay at the fixed seed diverged from shard 0");
  }
  if (rep.total_completed + rep.total_rejected + rep.total_failed !=
      rep.total_jobs) {
    result.fail("fleet lost jobs");
  }
  if (rep.e2e_sketch.count() != rep.total_completed) {
    result.fail("sketch count " + std::to_string(rep.e2e_sketch.count()) +
                " != completed " + std::to_string(rep.total_completed));
  }
  if (rep.peak_retained_samples != 0) {
    result.fail("fleet retained raw latency samples (memory fix regressed)");
  }
  for (const fleet::ShardResult& shard : rep.shard_results) {
    if (shard.report.completed == 0) {
      result.fail("shard " + std::to_string(shard.index) +
                  " completed nothing");
    }
  }
}

void run_warmboot(const exp::ParamMap& params, const exp::RunContext& ctx,
                  exp::Result& result) {
  fleet::FleetConfig cfg = fleet_base(ctx, params.get_u32("shards"));
  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  add_fleet_metrics(rep, result);
}

void run_slo(const exp::ParamMap& params, const exp::RunContext& ctx,
             exp::Result& result) {
  fleet::FleetConfig cfg = fleet_base(ctx, params.get_u32("shards"));

  // Fault pressure: a swept bus-ERROR rate on every access plus worker
  // 0's RAC swallowing every completion. The watchdog times the hangs
  // out, two strikes quarantine the worker — the flight-recorder
  // trigger path — and the bus errors burn the SLO error budget.
  //
  // The warm-up deliberately avoids kIdct: quarantine is permanent and
  // snapshot-carried, so if the hung worker tripped during the template
  // run every shard would inherit it already sidelined and no shard
  // flight recorder could ever fire. Keeping worker 0 idle until the
  // shard phase makes each shard hit the hang itself.
  cfg.warmup.kinds = {svc::JobKind::kDft, svc::JobKind::kFir};
  const double p = static_cast<double>(params.get_u32("fault_ppm")) * 1e-6;
  cfg.service.faults.add({.kind = fault::FaultKind::kBusError, .prob = p})
      .add({.kind = fault::FaultKind::kRacHang, .ocp = 0, .prob = 1.0});
  cfg.service.retry = svc::RetryPolicy{.max_attempts = 4,
                                       .backoff_base = 2048,
                                       .backoff_mult = 2,
                                       .quarantine_after = 2,
                                       .watchdog_cycles = 16'384};

  // Arm everything. One objective per tenant class (class == priority):
  // high pays for a tight latency bound, normal for a loose one.
  cfg.obs.slo = true;
  cfg.obs.slo_config.classes = {
      obs::SloObjective{
          .name = "high", .latency_cycles = 20'000, .target = 0.99},
      obs::SloObjective{
          .name = "normal", .latency_cycles = 60'000, .target = 0.95}};
  cfg.obs.slo_config.long_window = 40'000;
  cfg.obs.slo_config.short_window = 5'000;
  cfg.obs.slo_config.burn_threshold = 2.0;
  cfg.obs.slo_report_path = "build/bench/fleet_slo.slo.json";
  cfg.obs.flight = true;
  cfg.obs.flight_capacity = 1024;
  cfg.obs.flight_dump_stem = "build/bench/fleet_slo";

  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  add_fleet_metrics(rep, result);

  result.add_metric("flight_triggers", rep.flight_triggers);
  result.add_metric("flight_dumps", static_cast<u64>(rep.flight_dumps.size()));
  for (const obs::SloClassReport& cls : rep.slo.classes) {
    result.add_metric("slo_" + cls.name + "_availability",
                      cls.availability());
    result.add_metric("slo_" + cls.name + "_alerts", cls.alerts);
    result.add_metric("slo_" + cls.name + "_worst_burn", cls.worst_burn);
    result.add_metric("slo_" + cls.name + "_met", static_cast<u64>(cls.met()));
  }

  // Every shard carries the hung RAC, so every shard must have tripped
  // its flight recorder on the watchdog/quarantine path.
  if (rep.flight_triggers != rep.shards) {
    result.fail("expected every shard to trip its flight recorder, got " +
                std::to_string(rep.flight_triggers) + "/" +
                std::to_string(rep.shards));
  }
  if (rep.slo.shards != rep.shards) {
    result.fail("SLO report folded " + std::to_string(rep.slo.shards) +
                " monitors, expected " + std::to_string(rep.shards));
  }
  u64 slo_jobs = 0;
  for (const obs::SloClassReport& cls : rep.slo.classes) slo_jobs += cls.jobs;
  if (slo_jobs != rep.total_completed + rep.total_failed) {
    result.fail("SLO job accounting (" + std::to_string(slo_jobs) +
                ") != completed + failed (" +
                std::to_string(rep.total_completed + rep.total_failed) + ")");
  }
}

}  // namespace

void register_fleet_warmboot(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "fleet_warmboot",
      .experiment = "FLEET",
      .title = "warm-boot >= 8 shards from one snapshot, serve in parallel",
      .grid = {{.name = "shards", .values = {8, 16}}},
      .deterministic = false,  // cold_boot_ms / fork_ms read the host clock
      .default_seed = 0xF1EE'7000ull,
      .run_ctx = run_warmboot,
  });
  r.add(exp::ScenarioSpec{
      .name = "fleet_slo",
      .experiment = "FLEET",
      .title = "fault-armed fleet under full observability: SLO burn-rate "
               "alerts + flight-recorder dumps",
      .grid = {{.name = "shards", .values = {8}},
               {.name = "fault_ppm", .values = {100}}},
      .deterministic = false,  // host wall-time metrics, as above
      .default_seed = 0xF1EE'5107ull,
      .run_ctx = run_slo,
  });
}

}  // namespace ouessant::scenarios
