// Run-flag wiring shared by the service-level families. TracedRun is
// --trace-events (serve_*, serve_faulty_*, chain_service, DPRF): an
// EventTracer through every layer of the stack plus a period-64
// MetricsSampler of the service's standard gauges. serve_with_snapshots
// is --restore/--snapshot (serve_*, serve_faulty_*).
#pragma once

#include <memory>
#include <string>

#include "exp/result.hpp"
#include "exp/scenario.hpp"
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

/// Serve @p wl (seeded with the run's seed) on @p service. With
/// ctx.restore_path set, warm-boot from that image first: resident
/// microcode, IRQ masks and caches come from the snapshot, and only this
/// run's counters start at zero. The image must come from the same
/// service configuration (restore checks the fingerprint and throws
/// SnapshotError otherwise). With ctx.snapshot_path set, save the final
/// state there.
svc::ServiceReport serve_with_snapshots(svc::OffloadService& service,
                                        svc::WorkloadConfig wl,
                                        const exp::RunContext& ctx);

}  // namespace ouessant::scenarios
