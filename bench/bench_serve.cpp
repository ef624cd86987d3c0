// SVC (offload service layer) — the src/svc/ scheduler under load.
//
// Five scenarios exercise the service end to end, each on a fresh SoC
// per grid point (the sweep's isolation rule):
//   serve_single_ocp  one IDCT worker under rising open-loop load: the
//                     classic queueing curve (wait_p95 grows as the gap
//                     between arrivals approaches the service time).
//   serve_multi_ocp   same offered load fanned over 1/2/4 IDCT workers:
//                     throughput should scale with worker count until
//                     the shared AHB saturates (bus_util_pct tells).
//   serve_batching    closed-loop population over one worker with the
//                     coalescing factor K swept: per-job end-to-end
//                     latency drops as launch/ack overhead amortizes.
//   serve_overload    a bounded queue offered ~5x its drain rate: the
//                     service must reject (counted) rather than livelock.
//   serve_mixed       all four job kinds, one worker each, with a
//                     high-priority share — the MPSoC service picture.
//
// All five are seeded (run_ctx) scenarios: the RunContext seed drives
// every random decision, so identical seeds give bit-identical
// histograms, and --trace-events writes an event trace plus a
// queue-depth / in-flight / per-OCP-busy time-series.
#include "scenarios.hpp"

#include <utility>

#include "obs/collect.hpp"
#include "svc/service.hpp"
#include "traced_run.hpp"

namespace ouessant::scenarios {
namespace {

/// Build the service, optionally attach the --trace-events observers,
/// serve the workload, and flatten report + bus utilization into the
/// result. Every run closes with a CycleLedger proof that per-component
/// cycle attribution sums to wall cycles.
void serve_point(svc::ServiceConfig cfg, svc::WorkloadConfig wl,
                 const exp::RunContext& ctx, exp::Result& result) {
  svc::OffloadService service(std::move(cfg));
  const TracedRun traced(service, ctx.trace_events_path);
  const svc::ServiceReport rep = serve_with_snapshots(service, wl, ctx);
  rep.add_to(result);
  obs::validate_soc_ledger(service.soc());
  traced.finish(result);
  const Cycle now = service.soc().kernel().now();
  result.add_metric(
      "bus_util_pct",
      now > 0 ? 100.0 * static_cast<double>(service.soc().bus().busy_cycles()) /
                    static_cast<double>(now)
              : 0.0);
  if (rep.completed + rep.rejected != rep.jobs) {
    result.fail("service lost jobs: completed " +
                std::to_string(rep.completed) + " + rejected " +
                std::to_string(rep.rejected) + " != " +
                std::to_string(rep.jobs));
  }
}

void run_single(const exp::ParamMap& params, const exp::RunContext& ctx,
                exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1}};
  cfg.queue_depth = 256;
  svc::WorkloadConfig wl;
  wl.jobs = 120;
  wl.mean_gap = params.get_real("mean_gap");
  serve_point(std::move(cfg), wl, ctx, result);
  if (result.metrics.get_int("rejected") != 0) {
    result.fail("unexpected rejection below saturation");
  }
}

void run_multi(const exp::ParamMap& params, const exp::RunContext& ctx,
               exp::Result& result) {
  const u32 n = params.get_u32("ocps");
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  for (u32 i = 0; i < n; ++i) {
    cfg.ocps.push_back(
        svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1});
  }
  cfg.queue_depth = 256;
  svc::WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 40.0;  // offered well above one worker's drain rate
  serve_point(std::move(cfg), wl, ctx, result);
}

void run_batching(const exp::ParamMap& params, const exp::RunContext& ctx,
                  exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct,
                           .max_batch = params.get_u32("batch")}};
  cfg.queue_depth = 64;
  svc::WorkloadConfig wl;
  wl.mode = svc::LoadMode::kClosedLoop;
  wl.jobs = 192;
  wl.clients = 32;
  serve_point(std::move(cfg), wl, ctx, result);
}

void run_overload(const exp::ParamMap& params, const exp::RunContext& ctx,
                  exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1}};
  cfg.queue_depth = params.get_u32("depth");
  svc::WorkloadConfig wl;
  wl.jobs = 200;
  wl.mean_gap = 60.0;  // ~5x the single worker's drain rate
  serve_point(std::move(cfg), wl, ctx, result);
  if (result.metrics.get_int("rejected") == 0) {
    result.fail("overload produced no rejections (queue unbounded?)");
  }
}

void run_mixed(const exp::ParamMap& params, const exp::RunContext& ctx,
               exp::Result& result) {
  (void)params;
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kJpegBlock, .max_batch = 2}};
  cfg.queue_depth = 128;
  svc::WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 150.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir,
              svc::JobKind::kJpegBlock};
  wl.high_fraction = 0.25;
  serve_point(std::move(cfg), wl, ctx, result);
}

}  // namespace

void register_serve(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "serve_single_ocp",
      .experiment = "SVC",
      .title = "one IDCT worker under rising open-loop load",
      .grid = {{.name = "mean_gap", .values = {1200.0, 600.0, 400.0}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run_ctx = run_single,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_multi_ocp",
      .experiment = "SVC",
      .title = "fixed offered load over 1/2/4 IDCT workers on one AHB",
      .grid = {{.name = "ocps", .values = {1, 2, 4}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run_ctx = run_multi,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_batching",
      .experiment = "SVC",
      .title = "closed-loop population, batch factor K swept",
      .grid = {{.name = "batch", .values = {1, 2, 4, 8, 16}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run_ctx = run_batching,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_overload",
      .experiment = "SVC",
      .title = "bounded queue offered ~5x its drain rate: reject, not hang",
      .grid = {{.name = "depth", .values = {16, 64}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run_ctx = run_overload,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_mixed",
      .experiment = "SVC",
      .title = "all four job kinds, one worker each, 25% high priority",
      .default_seed = svc::kDefaultServiceSeed,
      .run_ctx = run_mixed,
  });
}

}  // namespace ouessant::scenarios
