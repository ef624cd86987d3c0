// Experiment-layer tests: the scenario registry is complete, every
// scenario builds a working simulation and completes, the headline cycle
// counts match the pre-refactor bench transcripts (golden values), and
// the parallel sweep is bit-identical to the serial one in deterministic
// order.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "scenarios.hpp"
#include "util/types.hpp"

namespace ouessant {
namespace {

const exp::Registry& registry() {
  static const exp::Registry r = [] {
    exp::Registry reg;
    scenarios::register_all_scenarios(reg);
    return reg;
  }();
  return r;
}

/// Run one scenario at one grid point (by index into points()).
exp::Result run_point(const std::string& name, std::size_t index = 0) {
  const exp::ScenarioSpec* spec = registry().find(name);
  EXPECT_NE(spec, nullptr) << name;
  const auto points = spec->points();
  EXPECT_LT(index, points.size()) << name;
  return exp::run_job({.spec = spec, .params = points[index]});
}

i64 metric(const exp::Result& r, const std::string& name) {
  EXPECT_TRUE(r.metrics.has(name))
      << r.scenario << " missing metric " << name;
  return r.metrics.at(name).as_int();
}

// ---------------------------------------------------------------------
// Registry shape.

TEST(Registry, ContainsEveryExperiment) {
  std::set<std::string> experiments;
  for (const auto& spec : registry().scenarios()) {
    experiments.insert(spec.experiment);
  }
  for (const char* e : {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                        "E9", "E10", "E11", "E12", "guard"}) {
    EXPECT_TRUE(experiments.count(e)) << "no scenario registered for " << e;
  }
}

TEST(Registry, RejectsDuplicatesAndMissingRun) {
  exp::Registry r;
  r.add({.name = "a", .run = [](const exp::ParamMap&, exp::Result&) {}});
  EXPECT_THROW(
      r.add({.name = "a", .run = [](const exp::ParamMap&, exp::Result&) {}}),
      ConfigError);
  EXPECT_THROW(r.add({.name = "b"}), ConfigError);
}

TEST(Registry, GridExpansionLastAxisFastest) {
  const exp::ScenarioSpec* spec = registry().find("e6_isa");
  ASSERT_NE(spec, nullptr);
  const auto points = spec->points();
  ASSERT_EQ(points.size(), 12u);
  // words=128 stays fixed while burst and isa cycle through first.
  EXPECT_EQ(points[0].str(), "words=128 burst=16 isa=v1");
  EXPECT_EQ(points[1].str(), "words=128 burst=16 isa=v2");
  EXPECT_EQ(points[2].str(), "words=128 burst=64 isa=v1");
  EXPECT_EQ(points[4].str(), "words=512 burst=16 isa=v1");
}

TEST(Registry, SkipPredicateDropsDegeneratePoints) {
  const exp::ScenarioSpec* spec = registry().find("e4_transfer");
  ASSERT_NE(spec, nullptr);
  // The skip predicate only fires when a v2 loop would degenerate to a
  // single iteration (512/burst <= 1); no current grid value triggers
  // it, so the full 9x2 grid survives — the predicate guards future
  // burst values.
  EXPECT_EQ(spec->point_count(), 18u);
  exp::ScenarioSpec clipped = *spec;
  clipped.grid[0].values = {512};
  EXPECT_EQ(clipped.point_count(), 1u);  // v2@512 skipped, v1 kept
}

// ---------------------------------------------------------------------
// Golden cycle counts: the registry runs must reproduce the
// pre-refactor bench binaries bit for bit (values captured from the
// seed transcripts).

TEST(Golden, E1Table1) {
  const auto idct = run_point("e1_table1", 0);
  EXPECT_TRUE(idct.ok) << idct.error;
  EXPECT_EQ(metric(idct, "lat"), 18);
  EXPECT_EQ(metric(idct, "hw"), 2994);
  EXPECT_EQ(metric(idct, "sw"), 4812);
  const auto dft = run_point("e1_table1", 1);
  EXPECT_EQ(metric(dft, "lat"), 2485);
  EXPECT_EQ(metric(dft, "hw"), 6299);
  EXPECT_EQ(metric(dft, "sw"), 659468);
}

TEST(Golden, E3LinuxOverhead) {
  const auto r = run_point("e3_linux_overhead");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(metric(r, "bm_poll"), 3645);
  EXPECT_EQ(metric(r, "bm_irq"), 3601);
  EXPECT_EQ(metric(r, "lx_mmap"), 6299);
  EXPECT_EQ(metric(r, "lx_copy"), 14491);
  EXPECT_EQ(metric(r, "linux_overhead"), 2698);
  EXPECT_EQ(metric(r, "copy_extra"), 8192);
}

TEST(Golden, E4TransferDma64) {
  // burst=64 v1 is the paper's configuration: ~1.5 cycles/word.
  const auto points = registry().find("e4_transfer")->points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].str() == "burst=64 isa=v1") {
      const auto r = run_point("e4_transfer", i);
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_EQ(metric(r, "prog_size"), 18);
      EXPECT_EQ(metric(r, "cycles"), 1632);
      return;
    }
  }
  FAIL() << "burst=64 isa=v1 point missing";
}

TEST(Golden, E5IntegrationStyles) {
  const auto r = run_point("e5_integration", 3);  // words=128
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(metric(r, "pio"), 1688);
  EXPECT_EQ(metric(r, "dma"), 696);
  EXPECT_EQ(metric(r, "ocp"), 562);
}

TEST(Golden, E6IsaAndOverlap) {
  const auto v1 = run_point("e6_isa", 4);  // words=512 burst=16 isa=v1
  EXPECT_EQ(v1.params.str(), "words=512 burst=16 isa=v1");
  EXPECT_EQ(metric(v1, "prog_size"), 66);
  EXPECT_EQ(metric(v1, "instrs_run"), 66);
  EXPECT_EQ(metric(v1, "cycles"), 2380);
  const auto v2 = run_point("e6_isa", 5);  // words=512 burst=16 isa=v2
  EXPECT_EQ(metric(v2, "prog_size"), 6);
  EXPECT_EQ(metric(v2, "instrs_run"), 130);
  EXPECT_EQ(metric(v2, "cycles"), 2636);
  EXPECT_EQ(metric(run_point("e6_overlap", 0), "cycles"), 2656);
  EXPECT_EQ(metric(run_point("e6_overlap", 1), "cycles"), 2140);
}

TEST(Golden, E7DprAreaAndAmortization) {
  const auto area = run_point("e7_dpr_area");
  EXPECT_EQ(metric(area, "dpr_lut"), 468);
  EXPECT_EQ(metric(area, "dpr_ff"), 671);
  EXPECT_EQ(metric(area, "static_lut"), 936);
  EXPECT_EQ(metric(area, "static_ff"), 1206);
  const auto b1 = run_point("e7_dpr", 0);  // batch_len=1
  EXPECT_EQ(metric(b1, "dpr_cycles"), 11456);
  EXPECT_EQ(metric(b1, "static_cycles"), 2496);
  EXPECT_EQ(metric(b1, "swaps"), 7);
  const auto b128 = run_point("e7_dpr", 4);  // batch_len=128
  EXPECT_EQ(metric(b128, "dpr_cycles"), 328448);
  EXPECT_EQ(metric(b128, "static_cycles"), 319488);
}

TEST(Golden, E8BusPortability) {
  const auto idct = run_point("e8_bus", 0);
  EXPECT_EQ(metric(idct, "ahb"), 296);
  EXPECT_EQ(metric(idct, "axi4"), 304);
  EXPECT_EQ(metric(idct, "axilite"), 422);
  const auto dft = run_point("e8_bus", 1);
  EXPECT_EQ(metric(dft, "ahb"), 3601);
  EXPECT_EQ(metric(dft, "axi4"), 3637);
  EXPECT_EQ(metric(dft, "axilite"), 4609);
}

TEST(Golden, E9JpegCorners) {
  const auto small = run_point("e9_jpeg", 0);  // 32x32 Q25 rle
  EXPECT_EQ(metric(small, "sw"), 80435);
  EXPECT_EQ(metric(small, "hw_seq"), 8176);
  EXPECT_EQ(metric(small, "hw_pipe"), 4919);
  const auto big = run_point("e9_jpeg", 11);  // 96x96 Q75 huffman
  EXPECT_EQ(metric(big, "sw"), 761195);
  EXPECT_EQ(metric(big, "hw_seq"), 110880);
  EXPECT_EQ(metric(big, "hw_pipe"), 69408);
}

TEST(Golden, E10CoupledVsOcp) {
  const auto lat = run_point("e10_latency");
  EXPECT_EQ(metric(lat, "coupled_lat"), 3007);
  EXPECT_EQ(metric(lat, "ocp_lat"), 3601);
  const auto k0 = run_point("e10_overlap", 0);
  EXPECT_EQ(metric(k0, "coupled_total"), 3007);
  EXPECT_EQ(metric(k0, "ocp_total"), 3599);
  const auto k4000 = run_point("e10_overlap", 4);
  EXPECT_EQ(metric(k4000, "coupled_total"), 7007);
  EXPECT_EQ(metric(k4000, "ocp_total"), 4006);
}

TEST(Golden, E11ModelValidation) {
  const auto r = run_point("e11_l3");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(metric(r, "analytic"), 4812);
  EXPECT_EQ(metric(r, "iss_executed"), 8885);
  EXPECT_EQ(metric(r, "hw"), 296);
  EXPECT_EQ(r.metrics.at("bit_exact").as_str(), "yes");
}

TEST(Golden, E12Contention) {
  const i64 expected[] = {1630, 3232, 4850, 6459};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto r = run_point("e12_contention", i);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(metric(r, "makespan"), expected[i]) << "ocps=" << (i + 1);
  }
}

// ---------------------------------------------------------------------
// Sweep engine.

TEST(Sweep, EveryScenarioCompletesAndPasses) {
  const auto outcome = exp::run_sweep(registry(), {.jobs = 1});
  EXPECT_EQ(outcome.failed, 0u);
  for (const auto& r : outcome.results) {
    EXPECT_TRUE(r.ok) << r.scenario << " " << r.params.str() << ": "
                      << r.error;
  }
  // Every registered scenario contributed its full point count.
  std::size_t expected = 0;
  for (const auto& spec : registry().scenarios()) {
    expected += spec.point_count();
  }
  EXPECT_EQ(outcome.results.size(), expected);
}

TEST(Sweep, FilterSelectsByNameExperimentAndTitle) {
  const auto by_name = exp::expand_jobs(registry(), "e4_transfer");
  EXPECT_EQ(by_name.size(), 18u);
  const auto by_exp = exp::expand_jobs(registry(), "E12");
  EXPECT_EQ(by_exp.size(), 4u);
  const auto multi = exp::expand_jobs(registry(), "e4_transfer,E12");
  EXPECT_EQ(multi.size(), 22u);
  EXPECT_TRUE(exp::expand_jobs(registry(), "no_such_scenario").empty());
}

TEST(Sweep, ParallelBitIdenticalToSerial) {
  const auto jobs = exp::expand_jobs(registry(), "");
  const auto serial = exp::run_sweep(registry(), {.jobs = 1});
  const auto parallel = exp::run_sweep(registry(), {.jobs = 8});
  ASSERT_EQ(serial.results.size(), jobs.size());
  ASSERT_EQ(parallel.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].spec->deterministic) continue;  // host-clock metrics
    EXPECT_TRUE(same_payload(serial.results[i], parallel.results[i]))
        << jobs[i].spec->name << " " << jobs[i].params.str();
  }
}

TEST(Sweep, RunCtxThreadsSeedAndTracePath) {
  exp::Registry r;
  r.add({.name = "ctx_spec",
         .grid = {{.name = "i", .values = {1, 2}}},
         .default_seed = 7,
         .run_ctx = [](const exp::ParamMap&, const exp::RunContext& ctx,
                       exp::Result& res) {
           res.add_metric("seed", static_cast<i64>(ctx.seed));
           res.add_metric("traced", ctx.trace_events_path.empty() ? 0 : 1);
         }});

  // Default: the spec's own seed, no tracing.
  auto outcome = exp::run_sweep(r, {.jobs = 1});
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_EQ(outcome.results[0].metrics.get_int("seed"), 7);
  EXPECT_EQ(outcome.results[0].metrics.get_int("traced"), 0);

  // --seed overrides, --trace-events names one file per grid point.
  const auto jobs = exp::expand_jobs(
      r, {.jobs = 1, .seed = 42u, .trace_events_stem = "tr"});
  ASSERT_EQ(jobs.size(), 2u);
  ASSERT_TRUE(jobs[0].seed.has_value());
  EXPECT_EQ(*jobs[0].seed, 42u);
  EXPECT_EQ(jobs[0].trace_events_path, "tr_ctx_spec_0.trace.json");
  EXPECT_EQ(jobs[1].trace_events_path, "tr_ctx_spec_1.trace.json");
}

TEST(Registry, RequiresExactlyOneRunFunction) {
  exp::Registry none;
  EXPECT_THROW(none.add({.name = "none"}), ConfigError);

  exp::Registry both;
  EXPECT_THROW(
      both.add({.name = "both",
                .run = [](const exp::ParamMap&, exp::Result&) {},
                .run_ctx = [](const exp::ParamMap&, const exp::RunContext&,
                              exp::Result&) {}}),
      ConfigError);
}

TEST(Sweep, ExceptionBecomesFailedResult) {
  exp::Registry r;
  r.add({.name = "boom",
         .run = [](const exp::ParamMap&, exp::Result&) {
           throw SimError("deliberate");
         }});
  const auto outcome = exp::run_sweep(r, {.jobs = 1});
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_FALSE(outcome.results[0].ok);
  EXPECT_NE(outcome.results[0].error.find("deliberate"), std::string::npos);
  EXPECT_EQ(outcome.failed, 1u);
}

}  // namespace
}  // namespace ouessant
