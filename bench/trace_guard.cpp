// trace_guard — the tier-1 observability invariants, as one binary:
//
//   1. PASSIVITY. The same mixed serve workload runs twice at the same
//      seed, once bare and once with the full observability stack
//      attached (EventTracer through every layer, MetricsSampler, and a
//      CycleLedger proof at the end). The traced run must be
//      bit-identical to the untraced one: same simulated clock, same
//      Stats::all() counter map, same per-job end-to-end samples.
//   2. OVERHEAD. Tracing is allowed to cost host time, but not much:
//      the traced run must finish within 2x the untraced host time plus
//      a fixed slack floor (the floor keeps sub-millisecond runs from
//      flaking on scheduler noise).
//
// On success the trace is left at the path given by argv[1] (default
// trace_guard.trace.json) so the caller can smoke-test ouessant_trace
// on a real file — which is exactly what scripts/run_tier1.sh does.
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "obs/collect.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "svc/service.hpp"

namespace {

using namespace ouessant;

constexpr u64 kMetricsPeriod = 64;
constexpr double kHostFactor = 2.0;
constexpr double kHostSlackSeconds = 0.25;

svc::ServiceConfig make_config() {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2}};
  cfg.queue_depth = 128;
  return cfg;
}

svc::WorkloadConfig make_workload() {
  svc::WorkloadConfig wl;
  wl.jobs = 120;
  wl.mean_gap = 200.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir};
  wl.high_fraction = 0.25;
  return wl;
}

struct RunSnapshot {
  Cycle cycles = 0;
  std::map<std::string, u64> stats;
  std::vector<u64> e2e;
  u64 completed = 0;
  double host_seconds = 0.0;
  std::size_t trace_events = 0;
};

RunSnapshot run_once(const std::string& trace_path) {
  const auto t0 = std::chrono::steady_clock::now();
  svc::OffloadService service(make_config());
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::MetricsSampler> metrics;
  if (!trace_path.empty()) {
    tracer = std::make_unique<obs::EventTracer>(service.soc().kernel());
    service.attach_tracer(*tracer);
    metrics = std::make_unique<obs::MetricsSampler>(service.soc().kernel(),
                                                    kMetricsPeriod);
    service.attach_metrics(*metrics);
  }
  const svc::ServiceReport rep = service.run(make_workload());
  RunSnapshot snap;
  snap.cycles = service.soc().kernel().now();
  snap.stats = service.soc().kernel().stats().all();
  // The published speed counters are allowed to differ: the traced
  // run's metrics sampler reads per-cycle state, which forces the
  // per-beat bus path, so batched_chunks drops to zero by design.
  // Everything else must be bit-identical.
  for (auto it = snap.stats.begin(); it != snap.stats.end();) {
    const std::string& key = it->first;
    const bool speed_counter = key.ends_with(".batched_chunks") ||
                               key.ends_with(".decode_hits") ||
                               key.ends_with(".decode_misses");
    it = speed_counter ? snap.stats.erase(it) : std::next(it);
  }
  snap.e2e = rep.e2e.samples();
  snap.completed = rep.completed;
  if (tracer != nullptr) {
    obs::validate_soc_ledger(service.soc());
    tracer->write_json(trace_path);
    metrics->write_json(trace_path + ".metrics.json");
    snap.trace_events = tracer->event_count();
  }
  snap.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return snap;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path =
      argc > 1 ? argv[1] : "trace_guard.trace.json";
  try {
    const RunSnapshot bare = run_once("");
    const RunSnapshot traced = run_once(trace_path);

    int failures = 0;
    if (bare.cycles != traced.cycles) {
      std::fprintf(stderr,
                   "trace_guard: sim clock diverged: untraced %llu, "
                   "traced %llu\n",
                   static_cast<unsigned long long>(bare.cycles),
                   static_cast<unsigned long long>(traced.cycles));
      ++failures;
    }
    if (bare.stats != traced.stats) {
      std::fprintf(stderr, "trace_guard: Stats::all() diverged\n");
      for (const auto& [key, value] : bare.stats) {
        const auto it = traced.stats.find(key);
        if (it == traced.stats.end() || it->second != value) {
          std::fprintf(stderr, "  %s: untraced %llu traced %llu\n",
                       key.c_str(), static_cast<unsigned long long>(value),
                       static_cast<unsigned long long>(
                           it == traced.stats.end() ? 0 : it->second));
        }
      }
      for (const auto& [key, value] : traced.stats) {
        if (bare.stats.find(key) == bare.stats.end()) {
          std::fprintf(stderr, "  %s: only in traced (%llu)\n", key.c_str(),
                       static_cast<unsigned long long>(value));
        }
      }
      ++failures;
    }
    if (bare.e2e != traced.e2e) {
      std::fprintf(stderr,
                   "trace_guard: per-job latency histograms diverged "
                   "(%zu vs %zu samples)\n",
                   bare.e2e.size(), traced.e2e.size());
      ++failures;
    }
    const double budget =
        kHostFactor * bare.host_seconds + kHostSlackSeconds;
    if (traced.host_seconds > budget) {
      std::fprintf(stderr,
                   "trace_guard: tracing overhead over budget: untraced "
                   "%.3fs, traced %.3fs, budget %.3fs\n",
                   bare.host_seconds, traced.host_seconds, budget);
      ++failures;
    }

    std::printf(
        "trace_guard: %llu jobs, %llu sim cycles, %zu trace events | "
        "untraced %.3fs, traced %.3fs (budget %.3fs) | %s\n",
        static_cast<unsigned long long>(traced.completed),
        static_cast<unsigned long long>(traced.cycles), traced.trace_events,
        bare.host_seconds, traced.host_seconds, budget,
        failures == 0 ? "OK" : "FAIL");
    std::printf("trace written to %s\n", trace_path.c_str());
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_guard: %s\n", e.what());
    return 2;
  }
}
