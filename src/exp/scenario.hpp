// Scenario registry: the declarative experiment API.
//
// A ScenarioSpec names one paper experiment (or tool guard), declares its
// parameter grid, and provides a run function that — given one grid
// point — assembles a *fresh, fully isolated* simulation (its own
// sim::Kernel, platform::Soc, RACs, sessions), executes the workload and
// fills a Result. Isolation is the concurrency model: the sweep engine
// may execute any two runs on different threads, which is sound because
// runs share no mutable state (see DESIGN.md §8 for the audit of the
// no-mutable-statics rule this relies on).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/param.hpp"
#include "exp/result.hpp"

namespace ouessant::exp {

/// Per-run context the sweep threads into context-aware scenarios: the
/// seed the run must use (the spec's default_seed unless the driver's
/// --seed overrides it) and an optional Chrome trace-event JSON path
/// ("" = off; the run writes its metrics time-series next to it). Plain
/// runs (ScenarioSpec::run) never see it.
struct RunContext {
  u64 seed = 0;
  std::string trace_events_path;
  /// Fault plan spec string (ouessant_bench --faults, fault::FaultPlan
  /// grammar). "" = the scenario's built-in plan (usually none). Only
  /// the serve_faulty family consults it.
  std::string faults;
  /// Snapshot destination ("" = off): snapshot-aware scenarios (the
  /// serve_* family) save their final service state here after the run
  /// (ouessant_bench --snapshot STEM).
  std::string snapshot_path;
  /// Snapshot source ("" = cold boot): snapshot-aware scenarios
  /// warm-boot from this file — the stack must have been built from the
  /// same configuration, or restore throws SnapshotError
  /// (ouessant_bench --restore FILE).
  std::string restore_path;
  /// Chain-mode override (ouessant_bench --chain): "linked" or
  /// "store_forward" forces every chain-aware scenario (the chain_* /
  /// serve_jpeg family) to that intermediate-block routing; "" = the
  /// scenario runs its built-in grid/default. Other scenarios ignore it.
  std::string chain;
};

/// One named grid axis. The sweep expands axes in declaration order with
/// the last axis varying fastest — the same order as the nested for-loops
/// of the pre-registry bench binaries, so transcripts stay comparable.
struct Axis {
  std::string name;
  std::vector<Value> values;
};

struct ScenarioSpec {
  std::string name;        ///< registry key, e.g. "e4_transfer"
  std::string experiment;  ///< paper id, e.g. "E4"
  std::string title;       ///< one-line description for --list
  std::vector<Axis> grid;  ///< empty => a single parameterless point

  /// Optional: return true to drop a grid point (invalid combination).
  std::function<bool(const ParamMap&)> skip;

  /// Upper bound on simulated cycles any single run may need; runs are
  /// expected to finish their run_until()s well under this (the spec
  /// value is published in --list and asserted by tests/test_scenario).
  u64 timeout_cycles = 10'000'000;

  /// False for scenarios whose metrics include host wall-clock readings
  /// (e.g. the kernel throughput guard). Run-to-run payload comparisons
  /// — the --compare-jobs bit-identity check and tests/test_scenario —
  /// skip non-deterministic scenarios.
  bool deterministic = true;

  /// Seed handed to run_ctx scenarios when the driver does not override
  /// it. Scenarios without randomness leave it at 0 and ignore it.
  u64 default_seed = 0;

  /// Execute one grid point. Must build all simulation state locally,
  /// must not touch global mutable state, and reports failures by
  /// filling @p result (throwing is also safe: the sweep converts the
  /// exception into result.fail()).
  std::function<void(const ParamMap&, Result&)> run;

  /// Context-aware alternative to run: also receives the RunContext
  /// (seed + trace path). A spec provides exactly one of run / run_ctx.
  std::function<void(const ParamMap&, const RunContext&, Result&)> run_ctx;

  /// Number of points after skip-filtering.
  [[nodiscard]] std::size_t point_count() const;

  /// Expand the grid (minus skipped points) in deterministic order.
  [[nodiscard]] std::vector<ParamMap> points() const;
};

/// An ordered collection of scenarios. Built once (single-threaded) at
/// startup by explicit registration calls, then only read — never mutated
/// during a sweep.
class Registry {
 public:
  /// Throws ConfigError on duplicate names or a missing run function.
  void add(ScenarioSpec spec);

  [[nodiscard]] const std::vector<ScenarioSpec>& scenarios() const {
    return scenarios_;
  }
  [[nodiscard]] const ScenarioSpec* find(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<ScenarioSpec> scenarios_;
};

}  // namespace ouessant::exp
