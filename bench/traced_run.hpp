// --trace-events wiring shared by the service-level families (serve_*,
// serve_faulty_*, chain_service, DPRF): an EventTracer through every layer of the stack plus a
// period-64 MetricsSampler of the service's standard gauges.
#pragma once

#include <memory>
#include <string>

#include "exp/result.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "svc/service.hpp"

namespace ouessant::scenarios {

class TracedRun {
 public:
  /// Arm both observers on @p service when @p path is non-empty (the
  /// run's RunContext::trace_events_path); do nothing otherwise. Call
  /// before the service's first tick.
  TracedRun(svc::OffloadService& service, std::string path);

  /// Write the trace to <path> and the time-series to
  /// <path>.metrics.json, and record the event count as the
  /// "trace_events" metric. No-op when unarmed.
  void finish(exp::Result& result) const;

 private:
  std::string path_;
  std::unique_ptr<obs::EventTracer> tracer_;
  std::unique_ptr<obs::MetricsSampler> metrics_;
};

}  // namespace ouessant::scenarios
