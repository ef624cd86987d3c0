#include "exp/sweep.hpp"

#include <chrono>

#include "util/parallel.hpp"

namespace ouessant::exp {

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string part =
        s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!part.empty()) out.push_back(part);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

bool matches_filter(const ScenarioSpec& spec, const std::string& filter) {
  if (filter.empty()) return true;
  for (const std::string& needle : split_commas(filter)) {
    if (spec.name.find(needle) != std::string::npos ||
        spec.experiment.find(needle) != std::string::npos ||
        spec.title.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<SweepJob> expand_jobs(const Registry& registry,
                                  const std::string& filter) {
  std::vector<SweepJob> jobs;
  for (const ScenarioSpec& spec : registry.scenarios()) {
    if (!matches_filter(spec, filter)) continue;
    for (ParamMap& point : spec.points()) {
      jobs.push_back(SweepJob{.spec = &spec, .params = std::move(point)});
    }
  }
  return jobs;
}

std::vector<SweepJob> expand_jobs(const Registry& registry,
                                  const SweepOptions& options) {
  std::vector<SweepJob> jobs = expand_jobs(registry, options.filter);
  const ScenarioSpec* last = nullptr;
  std::size_t point = 0;
  for (SweepJob& job : jobs) {
    if (!job.spec->run_ctx) continue;  // plain runs take no context
    job.seed = options.seed;
    job.faults = options.faults;
    job.restore_path = options.restore_path;
    job.chain = options.chain;
    if (options.trace_events_stem.empty() && options.snapshot_stem.empty()) {
      continue;
    }
    // One per-spec point counter shared by all artifact kinds, so the
    // event trace and snapshot of the same run carry the same suffix.
    point = (job.spec == last) ? point + 1 : 0;
    last = job.spec;
    const std::string suffix =
        "_" + job.spec->name + "_" + std::to_string(point);
    if (!options.trace_events_stem.empty()) {
      job.trace_events_path =
          options.trace_events_stem + suffix + ".trace.json";
    }
    if (!options.snapshot_stem.empty()) {
      job.snapshot_path = options.snapshot_stem + suffix + ".snap";
    }
  }
  return jobs;
}

Result run_job(const SweepJob& job) {
  Result r;
  r.scenario = job.spec->name;
  r.experiment = job.spec->experiment;
  r.params = job.params;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (job.spec->run_ctx) {
      RunContext ctx;
      ctx.seed = job.seed.value_or(job.spec->default_seed);
      ctx.trace_events_path = job.trace_events_path;
      ctx.faults = job.faults;
      ctx.snapshot_path = job.snapshot_path;
      ctx.restore_path = job.restore_path;
      ctx.chain = job.chain;
      job.spec->run_ctx(job.params, ctx, r);
    } else {
      job.spec->run(job.params, r);
    }
  } catch (const std::exception& e) {
    r.fail(e.what());
  } catch (...) {
    r.fail("unknown exception");
  }
  r.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

SweepOutcome run_sweep(const Registry& registry, const SweepOptions& options) {
  const std::vector<SweepJob> jobs = expand_jobs(registry, options);
  SweepOutcome out;
  out.jobs = options.jobs < 1 ? 1 : options.jobs;
  out.results.resize(jobs.size());

  // Each job writes the slot reserved for its expansion index, so the
  // output order is independent of scheduling. run_job never throws.
  const auto t0 = std::chrono::steady_clock::now();
  util::parallel_for(jobs.size(), static_cast<unsigned>(out.jobs),
                     [&](std::size_t i) { out.results[i] = run_job(jobs[i]); });
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const Result& r : out.results) {
    if (!r.ok) ++out.failed;
  }
  return out;
}

}  // namespace ouessant::exp
