#include "traced_run.hpp"

#include <utility>

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

}  // namespace ouessant::scenarios
