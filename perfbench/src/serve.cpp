// serve_open and fleet_warm: open-loop Poisson traffic through
// svc::OffloadService, on one stack or on fleet::run_fleet's shards
// forked from a warm snapshot.
//
// Both serve the same mixed worker set: two batching IDCT workers, a
// batching DFT worker and one linked dequant->IDCT chain, with a tenth
// of the jobs high-priority. Arrivals are injected by the dispatcher's
// doorbell at their scheduled cycle and latency is measured from that
// scheduled cycle, so the generator is never late; the check below
// regenerates the schedule independently and proves it per job.
#include <sys/resource.h>

#include <exception>

#include "bench.hpp"
#include "fleet/fleet.hpp"
#include "stack.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"

namespace perfbench {
namespace {

using namespace ouessant;

/// Nominal offered rate and the capacity ladder, in jobs per million
/// simulated cycles, and the p99 limit (200 us at 50 MHz) a ladder rung
/// must meet. The worker set saturates near 4100 jobs/Mcycle (the chain
/// worker is the bottleneck); the nominal rate loads it to about 75%,
/// and the limit falls between the 3500 and 3750 rungs on most seeds.
constexpr double kNominalJpmc = 3000.0;
constexpr double kLadderJpmc[] = {2500, 2750, 3000, 3250, 3500,
                                  3750, 4000, 4250, 4500};
constexpr u64 kP99LimitCycles = 10'000;

svc::ServiceConfig service_config() {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 4},
              svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 4},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 4}};
  cfg.chains = {svc::ChainSpec{.max_batch = 2}};
  cfg.queue_depth = 256;
  return cfg;
}

svc::WorkloadConfig workload(u32 jobs, double jpmc, u64 seed) {
  svc::WorkloadConfig wl;
  wl.mode = svc::LoadMode::kOpenLoop;
  wl.jobs = jobs;
  wl.mean_gap = 1e6 / jpmc;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kIdct, svc::JobKind::kDft,
              svc::JobKind::kJpegChain};
  wl.high_fraction = 0.1;
  wl.seed = seed;
  return wl;
}

void strip_optimizations(platform::Soc& soc) {
  soc.bus().set_batching(false);
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    soc.ocp(i).controller().set_decode_cache(false);
  }
  soc.kernel().set_gating(false);
}

/// What one served run produced, with the benchmark's own checks.
struct Served {
  svc::ServiceReport report;
  double timed_s = 0;
  u64 sim_cycles = 0;
  u64 steps = 0;
  double check_s = 0;  ///< host time of the benchmark's own checks
  Digest digest;
  std::string error;
  u64 failed = 0;
  std::map<std::string, double> layers;
};

/// Serve @p wl on @p service (fresh, or restored with @p warm) through
/// begin/step/finish, timing the calls and checking every job against
/// the independently regenerated arrival schedule.
Served serve(svc::OffloadService& service, const svc::WorkloadConfig& wl,
             bool warm, Tracer* tracer) {
  Served s;
  struct Seen {
    u64 id;
    svc::JobKind kind;
    Cycle arrival, dispatch, complete;
  };
  std::vector<Seen> seen;
  seen.reserve(wl.jobs);
  service.set_job_observer([&](const svc::Job& job) {
    s.digest.add(job.id);
    s.digest.add(job.arrival);
    s.digest.add(job.dispatch);
    s.digest.add(job.complete);
    s.digest.add(static_cast<u64>(job.worker));
    seen.push_back({job.id, job.kind, job.arrival, job.dispatch, job.complete});
  });
  platform::Soc& soc = service.soc();
  const StackCounters before = StackCounters::read(soc);
  const Cycle c0 = soc.kernel().now();
  const auto t0 = Clock::now();
  try {
    {
      ScopedSpan span(tracer, "svc.begin");
      service.begin(wl, warm);
    }
    bool done = false;
    while (!done) {
      ScopedSpan span(tracer, "svc.step", s.steps);
      done = service.step();
      ++s.steps;
    }
    ScopedSpan span(tracer, "svc.finish");
    s.report = service.finish();
  } catch (const std::exception& e) {
    s.error = std::string("SimError: ") + e.what();
  }
  s.timed_s = seconds_since(t0);
  s.sim_cycles = soc.kernel().now() - c0;
  const StackCounters after = StackCounters::read(soc);
  const svc::ServiceReport& rep = s.report;

  // Independent schedule: the generator the service seeds, replayed.
  const auto t_check = Clock::now();
  util::Rng rng(wl.seed);
  const std::vector<svc::Job> want =
      svc::open_loop_arrivals(wl, rng, rep.start + 1);
  for (const Seen& job : seen) {
    if (job.id >= want.size() || want[job.id].arrival != job.arrival ||
        want[job.id].kind != job.kind || job.dispatch < job.arrival ||
        job.complete < job.dispatch) {
      if (s.error.empty()) {
        s.error = "job " + std::to_string(job.id) +
                  " does not match its scheduled arrival";
      }
      ++s.failed;
    }
  }
  const u64 missing =
      wl.jobs > rep.completed ? wl.jobs - rep.completed : 0;
  s.failed += missing + rep.rejected + rep.failed;
  if (s.error.empty() && missing + rep.rejected + rep.failed > 0) {
    s.error = std::to_string(missing) + " jobs not completed (" +
              std::to_string(rep.rejected) + " rejected, " +
              std::to_string(rep.failed) + " failed)";
  }
  s.check_s = seconds_since(t_check);

  auto& L = s.layers;
  add_stack_layers(L, before, after, wl.jobs, s.sim_cycles, s.timed_s);
  const double jobs = std::max<double>(rep.completed, 1);
  const double span = std::max<double>(rep.makespan(), 1);
  u64 busy = 0;
  for (const auto& w : rep.workers) busy += w.busy_cycles;
  L["rac.busy_frac"] = static_cast<double>(busy) /
                       (span * std::max<double>(rep.workers.size(), 1));
  L["chain.link_words_per_job"] = static_cast<double>(rep.link_words) / jobs;
  L["chain.link_busy_frac"] = static_cast<double>(rep.link_busy_cycles) / span;
  L["svc.steps_per_job"] = static_cast<double>(s.steps) / jobs;
  L["svc.wait_p99_cycles"] = static_cast<double>(rep.wait.percentile(99));
  L["svc.service_p50_cycles"] =
      static_cast<double>(rep.service.percentile(50));
  L["svc.batches_per_job"] = static_cast<double>(rep.batches) / jobs;
  L["svc.peak_depth"] = static_cast<double>(rep.peak_depth);
  L["svc.retained_samples"] = static_cast<double>(
      rep.wait.count() + rep.service.count() + rep.e2e.count());
  return s;
}

/// Capacity: walk the fixed ladder upward and keep the highest rate
/// whose p99 stays under the limit with zero rejects.
double ladder_capacity(u32 jobs, u64 seed) {
  double best = 0;
  for (double rate : kLadderJpmc) {
    svc::OffloadService service(service_config());
    const Served s = serve(service, workload(jobs, rate, seed), false, nullptr);
    if (!s.error.empty() || s.report.e2e.percentile(99) > kP99LimitCycles) {
      break;
    }
    best = rate;
  }
  return best;
}

SimSummary summarize(const Served& s, u64 jobs) {
  SimSummary sim;
  sim.ops = jobs;
  sim.cycles = s.report.makespan();
  sim.p50 = s.report.e2e.percentile(50);
  sim.p99 = s.report.e2e.percentile(99);
  sim.jobs_per_mcycle = static_cast<double>(s.report.completed) * 1e6 /
                        std::max<double>(s.report.makespan(), 1);
  sim.digest = s.digest.h;
  return sim;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(u64 seed, u32 jobs, u32 prefix, u32 ladder_jobs)
      : seed_(seed), jobs_(jobs), prefix_(prefix), ladder_jobs_(ladder_jobs) {}

  Round round(Tracer* tracer) override {
    Round r;
    const auto t_setup = Clock::now();
    svc::OffloadService service(service_config());
    r.setup_s = seconds_since(t_setup);
    const Served s =
        serve(service, workload(jobs_, kNominalJpmc, seed_), false, tracer);
    r.timed_s = s.timed_s;
    r.sim_cycles = s.sim_cycles;
    r.attempted = jobs_;
    r.failed = s.failed;
    r.error = s.error;
    r.check_s = s.check_s;
    r.sim = summarize(s, jobs_);
    r.layers = s.layers;
    return r;
  }

  std::string shadow_check() override {
    const svc::WorkloadConfig wl = workload(prefix_, kNominalJpmc, seed_);
    svc::OffloadService on(service_config());
    svc::OffloadService off(service_config());
    strip_optimizations(off.soc());
    const Served a = serve(on, wl, false, nullptr);
    const Served b = serve(off, wl, false, nullptr);
    if (!a.error.empty()) return a.error;
    if (!b.error.empty()) return "unoptimized: " + b.error;
    if (!(summarize(a, prefix_) == summarize(b, prefix_)) ||
        a.report.batches != b.report.batches ||
        a.report.peak_depth != b.report.peak_depth) {
      return "optimizations changed the served prefix";
    }
    return "";
  }

  double capacity_jpmc(const Round&) override {
    return ladder_capacity(ladder_jobs_, seed_);
  }

 private:
  u64 seed_;
  u32 jobs_;
  u32 prefix_;
  u32 ladder_jobs_;
};

/// fleet_warm: run_fleet with a fixed shard count (at least nproc on the
/// 4-CPU reference host, and fixed so simulated results do not depend
/// on the host).
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(u64 seed, u32 shards, u32 jobs, u32 warmup, u32 prefix,
                u32 ladder_jobs)
      : seed_(seed),
        prefix_(prefix),
        ladder_jobs_(ladder_jobs) {
    cfg_.service = service_config();
    cfg_.warmup = workload(warmup, kNominalJpmc, seed ^ 0x5EED'0000ull);
    cfg_.shard_load = workload(jobs, kNominalJpmc, seed);
    cfg_.shards = shards;
    cfg_.base_seed = seed * 0x1000;
    cfg_.verify_reproducible = false;
  }

  Round round(Tracer* tracer) override {
    Round r;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    fleet::FleetReport rep;
    try {
      ScopedSpan span(tracer, "fleet.run_fleet");
      rep = fleet::run_fleet(cfg_);
    } catch (const std::exception& e) {
      r.error = std::string("SimError: ") + e.what();
    }
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    r.setup_s = (rep.cold_boot_ms + rep.fork_ms_per_shard * cfg_.shards) / 1e3;
    r.timed_s = wall - r.setup_s;
    r.attempted = static_cast<u64>(cfg_.shards) * cfg_.shard_load.jobs;
    const auto t_check = Clock::now();
    Digest digest;
    for (const fleet::ShardResult& sh : rep.shard_results) {
      r.sim_cycles += sh.report.makespan();
      digest.add(sh.digest);
      digest.add(sh.report.start);
      digest.add(sh.report.end);
    }
    const u64 missing = r.attempted > rep.total_completed
                            ? r.attempted - rep.total_completed
                            : 0;
    r.failed = missing + rep.total_rejected + rep.total_failed;
    if (r.error.empty() && r.failed > 0) {
      r.error = std::to_string(r.failed) + " fleet jobs not completed";
    }
    if (r.error.empty() && rep.peak_retained_samples != 0) {
      r.error = "fleet shards retained raw latency samples";
    }
    r.check_s = seconds_since(t_check);
    r.sim.ops = r.attempted;
    r.sim.cycles = r.sim_cycles;
    r.sim.p50 = rep.e2e_sketch.percentile(50);
    r.sim.p99 = rep.e2e_sketch.percentile(99);
    r.sim.jobs_per_mcycle = rep.throughput_jpmc;
    r.sim.digest = digest.h;

    auto& L = r.layers;
    L["fleet.cold_boot_ms"] = rep.cold_boot_ms;
    L["fleet.fork_ms_per_shard"] = rep.fork_ms_per_shard;
    L["fleet.cpu_per_wall"] = wall > 0 ? cpu / wall : 0.0;
    L["snap.bytes"] = static_cast<double>(rep.snapshot_bytes);
    if (tracer != nullptr && r.error.empty()) {
      // The shard layers run_fleet keeps inside: replay shard 0 from the
      // public snapshot API and check it matches the fleet's shard 0.
      Served s = replica(cfg_.shard_load.jobs, true, tracer);
      const svc::ServiceReport& want = rep.shard_results.front().report;
      if (!s.error.empty()) {
        r.error = "replica: " + s.error;
      } else if (s.report.completed != want.completed ||
                 s.report.start != want.start || s.report.end != want.end ||
                 s.report.batches != want.batches) {
        r.error = "replayed shard 0 differs from run_fleet's shard 0";
      }
      for (const auto& [key, value] : s.layers) L.emplace(key, value);
    }
    return r;
  }

  std::string shadow_check() override {
    const Served a = replica(prefix_, true, nullptr);
    const Served b = replica(prefix_, false, nullptr);
    if (!a.error.empty()) return a.error;
    if (!b.error.empty()) return "unoptimized: " + b.error;
    if (!(summarize(a, prefix_) == summarize(b, prefix_))) {
      return "optimizations changed the warm-forked shard prefix";
    }
    return "";
  }

  double capacity_jpmc(const Round&) override {
    return cfg_.shards * ladder_capacity(ladder_jobs_, seed_);
  }

 private:
  static double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
  }

  /// Shard 0 rebuilt the way run_fleet forks it: cold-boot the template,
  /// snapshot it, restore into a fresh stack, serve warm.
  Served replica(u32 jobs, bool optimized, Tracer* tracer) {
    svc::OffloadService tmpl(cfg_.service);
    if (!optimized) strip_optimizations(tmpl.soc());
    tmpl.run(cfg_.warmup);
    snap::Snapshot image;
    {
      ScopedSpan span(tracer, "snap.save");
      image = tmpl.snapshot();
    }
    svc::OffloadService shard(cfg_.service);
    shard.set_latency_recording(false);
    {
      ScopedSpan span(tracer, "snap.restore");
      shard.restore(image);
    }
    if (!optimized) strip_optimizations(shard.soc());
    svc::WorkloadConfig load = cfg_.shard_load;
    load.jobs = jobs;
    load.seed = cfg_.base_seed;
    return serve(shard, load, /*warm=*/true, tracer);
  }

  fleet::FleetConfig cfg_;
  u64 seed_;
  u32 prefix_;
  u32 ladder_jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const std::string& name,
                                              u64 seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  if (name == "serve_open") {
    return std::make_unique<ServeWorkload>(seed, tiny ? 200u : 10000u,
                                           tiny ? 40u : 300u,
                                           tiny ? 100u : 5000u);
  }
  if (name == "fleet_warm") {
    return std::make_unique<FleetWorkload>(seed, 8, tiny ? 40u : 1000u,
                                           tiny ? 16u : 64u,
                                           tiny ? 20u : 200u,
                                           tiny ? 100u : 5000u);
  }
  return nullptr;
}

}  // namespace perfbench
