#include "traced_run.hpp"

#include <utility>

#include "snap/snapshot.hpp"

namespace ouessant::scenarios {
namespace {

/// Fine enough to see queue oscillation, coarse enough to keep files
/// small.
constexpr u64 kMetricsPeriod = 64;

}  // namespace

TracedRun::TracedRun(svc::OffloadService& service, std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  sim::Kernel& kernel = service.soc().kernel();
  tracer_ = std::make_unique<obs::EventTracer>(kernel);
  service.attach_tracer(*tracer_);
  metrics_ = std::make_unique<obs::MetricsSampler>(kernel, kMetricsPeriod);
  service.attach_metrics(*metrics_);
}

void TracedRun::finish(exp::Result& result) const {
  if (path_.empty()) return;
  tracer_->write_json(path_);
  metrics_->write_json(path_ + ".metrics.json");
  result.add_metric("trace_events", static_cast<u64>(tracer_->event_count()));
}

svc::ServiceReport serve_with_snapshots(svc::OffloadService& service,
                                        svc::WorkloadConfig wl,
                                        const exp::RunContext& ctx) {
  wl.seed = ctx.seed;
  svc::ServiceReport rep;
  if (!ctx.restore_path.empty()) {
    service.restore(snap::Snapshot::load_file(ctx.restore_path));
    service.begin(wl, /*warm=*/true);
    while (!service.step()) {
    }
    rep = service.finish();
  } else {
    rep = service.run(wl);
  }
  if (!ctx.snapshot_path.empty()) {
    service.snapshot().save_file(ctx.snapshot_path);
  }
  return rep;
}

}  // namespace ouessant::scenarios
