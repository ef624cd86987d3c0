// Shared pieces of the repository benchmark: the round record every
// workload returns, the span recorder of the traced run, and small
// statistics helpers. The benchmark drives the simulator only through
// its public headers and times the calls from outside.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/types.hpp"

namespace perfbench {

using ouessant::u32;
using ouessant::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Order-sensitive FNV-1a over 64-bit values: the per-op output digest
/// the determinism and shadow identity checks compare.
struct Digest {
  u64 h = 14695981039346656037ull;
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// Linear-interpolated quantile (q in [0, 1]) for host-time samples.
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------
// Traced run: spans recorded around calls into the simulator's public
// functions, kept in memory until the run ends.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  u64 op = 0;       ///< op (invocation or job batch) the span belongs to
};

class Tracer {
 public:
  Tracer();
  int open(const char* name, u64 op);
  void close(int idx);

  /// Durations (ns) of every span named @p name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Per span name: count, total ns, and self ns (duration minus the
  /// part covered by direct children).
  struct Summary {
    u64 count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  [[nodiscard]] std::map<std::string, Summary> summarize() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; does nothing (one branch) when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, u64 op = 0)
      : t_(t), idx_(t != nullptr ? t->open(name, op) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// ---------------------------------------------------------------------

/// Simulated outcome of one round: a pure function of the seed, so it
/// must repeat exactly across rounds, runs and optimization settings.
struct SimSummary {
  u64 ops = 0;
  u64 cycles = 0;           ///< simulated cycles the op stream took
  u64 p50 = 0;              ///< op latency, cycles
  u64 p99 = 0;
  double jobs_per_mcycle = 0;
  u64 digest = 0;           ///< per-op outputs and timestamps
  bool operator==(const SimSummary&) const = default;
};

/// One round: a fresh set-up followed by the workload's fixed op stream.
struct Round {
  double setup_s = 0;   ///< host time before the first timed op
  double timed_s = 0;   ///< host time of the op stream
  u64 sim_cycles = 0;   ///< simulated cycles advanced (summed over shards)
  SimSummary sim;
  u64 attempted = 0;
  u64 failed = 0;       ///< mismatches + SimErrors + rejected/refused/failed
  std::string error;    ///< first failure, empty when the round is clean
  double check_s = 0;   ///< host time of the benchmark's reference checks
  /// Slices of a homogeneous op stream (every op the same simulated
  /// work), ~10 ms of host time each: {simulated cycles, host seconds}.
  /// Empty for open-loop rounds, whose slices would differ in content;
  /// the whole round, identical in every repetition, is then one slice.
  std::vector<std::pair<u64, double>> slices;
  /// Per-layer counters read from the public stats (filled every round;
  /// reported only by the traced run).
  std::map<std::string, double> layers;
};

/// Cuts a timed op stream into slices: call tick() after every op; a
/// slice closes every @p every ticks.
class Slicer {
 public:
  Slicer(const ouessant::sim::Kernel& kernel, u32 every)
      : kernel_(kernel), every_(every), c0_(kernel.now()), t0_(Clock::now()) {}
  void tick() {
    if (++n_ % every_ != 0) return;
    const auto t = Clock::now();
    slices_.emplace_back(kernel_.now() - c0_,
                         std::chrono::duration<double>(t - t0_).count());
    c0_ = kernel_.now();
    t0_ = t;
  }
  std::vector<std::pair<u64, double>> take() { return std::move(slices_); }

 private:
  const ouessant::sim::Kernel& kernel_;
  u32 every_;
  u64 n_ = 0;
  u64 c0_;
  Clock::time_point t0_;
  std::vector<std::pair<u64, double>> slices_;
};

enum class Scale { kFull, kTiny };

class Workload {
 public:
  virtual ~Workload() = default;
  /// One round with every optimization on; @p tracer non-null in the
  /// traced half of a traced run.
  virtual Round round(Tracer* tracer) = 0;
  /// Run a prefix of the workload with the optimizations switched off
  /// through the public setters and with them on; returns an empty
  /// string when every simulated metric and the digest match.
  virtual std::string shadow_check() = 0;
  /// Highest offered rate (jobs/Mcycle) meeting the workload's latency
  /// limit with zero rejects; for a closed loop, its throughput.
  virtual double capacity_jpmc(const Round& first) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed,
                                        Scale scale);
/// invoke_idct / invoke_convert (invoke.cpp); nullptr for other names.
std::unique_ptr<Workload> make_invoke_workload(const std::string& name,
                                               u64 seed, Scale scale);
/// serve_open / fleet_warm (serve.cpp); nullptr for other names.
std::unique_ptr<Workload> make_serve_workload(const std::string& name,
                                              u64 seed, Scale scale);

/// Layer micros of the traced run (fifo.ns_per_word_*, bus.ns_per_beat,
/// ouessant.ns_per_decode), each timed around the public call and
/// recorded as spans.
std::map<std::string, double> run_micros(Tracer& tracer, Scale scale);

}  // namespace perfbench
