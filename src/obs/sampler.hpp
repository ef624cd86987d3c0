// MetricsSampler: periodic time-series snapshots of live gauges and
// Stats counters (DESIGN.md §10).
//
// Registers one kernel sampler and records a row every N cycles: the
// configured gauges (queue depth, in-flight jobs, per-OCP busy, bus
// occupancy — any u64-returning closure) plus any named Stats counters.
// It is passive: samplers run after the commit phase (and for every
// fast-forwarded cycle), so the simulated clock, memory and Stats are
// bit-identical with or without a sampler attached — the only cost is
// host time.
//
// The rows serialize two ways: ouessant.metrics.v1 JSON (write_json) and
// a VCD waveform (write_vcd) that GTKWave and friends open directly —
// the simulation flow the paper validates OCP integration with (§V-B).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/types.hpp"

namespace ouessant::obs {

class MetricsSampler {
 public:
  struct Sample {
    Cycle cycle = 0;
    std::vector<u64> values;  ///< column order: gauges, then stats keys
  };

  /// Snapshot every @p period cycles (the first sample lands on the
  /// first cycle divisible by @p period).
  MetricsSampler(sim::Kernel& kernel, u64 period);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Add a live gauge column. Columns must be registered before the
  /// first sample is taken (SimError otherwise — a late column would
  /// silently misalign every earlier row). Duplicate names rejected.
  /// @p unit and @p desc land in the metrics.v1 header registry so
  /// consumers (ouessant_trace, dashboards) can label axes without a
  /// side-channel schema.
  void add_gauge(const std::string& name, std::function<u64()> fn,
                 const std::string& unit = "", const std::string& desc = "");

  /// Add a Stats counter column sampled via Stats::get(@p key). Same
  /// registration rules as add_gauge. Stats counters are monotonic
  /// event counts, so the unit defaults to "count".
  void add_stat(const std::string& key, const std::string& unit = "count",
                const std::string& desc = "");

  [[nodiscard]] u64 period() const { return period_; }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  /// Parallel to columns(): per-column unit / description strings.
  [[nodiscard]] const std::vector<std::string>& units() const {
    return units_;
  }
  [[nodiscard]] const std::vector<std::string>& descriptions() const {
    return descs_;
  }
  [[nodiscard]] const std::vector<Sample>& samples() const {
    return samples_;
  }

  /// Serialize as ouessant.metrics.v1 JSON (docs/observability.md).
  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;

  /// Serialize as a VCD waveform: one `$var` per column in column order
  /// inside module @p top, `$timescale 20ns` (the 50 MHz system clock).
  /// The first row dumps every column, later rows only the columns that
  /// changed. Each column is declared as wide as its largest recorded
  /// value (at least 1 bit), so no value is ever truncated. Use period 1
  /// for a cycle-accurate waveform.
  void write_vcd(const std::string& path, const std::string& top) const;

  /// A metrics.v1 file read back: header registry + sample rows.
  struct File {
    u64 period = 0;
    std::vector<std::string> columns;
    std::vector<std::string> units;         ///< parallel to columns
    std::vector<std::string> descriptions;  ///< parallel to columns
    std::vector<Sample> samples;
  };

 private:
  void sample(Cycle cycle);
  void reject_if_started(const std::string& name) const;

  sim::Kernel& kernel_;
  u64 period_;
  u64 sampler_id_ = 0;
  std::vector<std::string> columns_;
  std::vector<std::string> units_;  ///< parallel to columns_
  std::vector<std::string> descs_;  ///< parallel to columns_
  std::vector<std::function<u64()>> gauges_;  ///< parallel to columns_ head
  std::vector<std::string> stat_keys_;        ///< columns_ tail
  std::vector<Sample> samples_;
};

/// Parse an ouessant.metrics.v1 file back (the `ouessant_trace metrics`
/// subcommand — prints each column with its registered unit). Throws
/// SimError on malformed or wrong-schema input, including rows whose
/// width disagrees with the column registry.
[[nodiscard]] MetricsSampler::File read_metrics(const std::string& path);

}  // namespace ouessant::obs
