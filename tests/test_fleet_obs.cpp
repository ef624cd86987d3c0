// Fleet-scale observability (src/obs sketch/slo, the bounded tracer +
// the fleet wiring) as unit and integration tests.
//
//  - QuantileSketch: pinned relative-error bound against exact
//    nearest-rank quantiles, merge commutativity/associativity across
//    shard orders, snapshot round-trip, config mismatch refusal.
//  - SloMonitor: good/bad accounting, multi-window rising-edge alerts,
//    report merge arithmetic, slo.v1 file round-trip.
//  - Bounded EventTracer (the flight recorder): ring overwrite
//    semantics, chronological dump order, trigger latching, snapshot
//    round-trip.
//  - fleet::run_fleet: armed-vs-unarmed digest bit-identity (passivity
//    at fleet scale), zero retained raw samples, fault-armed flight
//    dumps that parse back as ordinary traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fleet/fleet.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"
#include "obs/trace_reader.hpp"
#include "obs/tracer.hpp"
#include "sim/kernel.hpp"
#include "snap/state.hpp"
#include "svc/latency.hpp"

namespace ouessant {
namespace {

// ------------------------------------------------------------- sketch

std::vector<u64> lognormal_samples(std::size_t n, u64 seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> dist(7.0, 1.2);  // ~latency-shaped
  std::vector<u64> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<u64>(dist(rng)) + 1);
  }
  return out;
}

TEST(Sketch, QuantilesWithinPinnedRelativeErrorOfExact) {
  const std::vector<u64> samples = lognormal_samples(20'000, 0x5EED);
  obs::QuantileSketch sketch;  // default alpha = kDefaultSketchError
  svc::LatencyStats exact;
  for (const u64 v : samples) {
    sketch.add(v);
    exact.add(v);
  }
  ASSERT_EQ(sketch.count(), samples.size());
  EXPECT_EQ(sketch.min(), exact.min());
  EXPECT_EQ(sketch.max(), exact.max());
  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                         99.9, 100.0}) {
    const double est = static_cast<double>(sketch.percentile(p));
    const double ref = static_cast<double>(exact.percentile(p));
    // The DDSketch guarantee plus 1 cycle of integer rounding slack.
    EXPECT_LE(std::abs(est - ref),
              obs::kDefaultSketchError * ref + 1.0)
        << "p" << p << ": sketch " << est << " exact " << ref;
  }
}

TEST(Sketch, ZeroValuesAreExact) {
  obs::QuantileSketch s;
  for (int i = 0; i < 10; ++i) s.add(0);
  s.add(100);
  EXPECT_EQ(s.count(), 11u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.percentile(50.0), 0u);
  EXPECT_EQ(s.percentile(100.0), 100u);
}

TEST(Sketch, MergeIsCommutativeAndAssociativeAcrossShardOrders) {
  // Build per-"shard" sketches, then fold them in several permutations:
  // every order must produce the *identical* sketch (operator== covers
  // configuration, counts and full bucket contents).
  constexpr std::size_t kShards = 6;
  std::vector<obs::QuantileSketch> shards(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    for (const u64 v : lognormal_samples(500 + 97 * i, 0xAB + i)) {
      shards[i].add(v);
    }
  }
  auto fold = [&](const std::vector<std::size_t>& order) {
    obs::QuantileSketch acc;
    for (const std::size_t i : order) acc.merge(shards[i]);
    return acc;
  };
  const obs::QuantileSketch forward = fold({0, 1, 2, 3, 4, 5});
  const obs::QuantileSketch reverse = fold({5, 4, 3, 2, 1, 0});
  const obs::QuantileSketch shuffled = fold({3, 0, 5, 1, 4, 2});
  EXPECT_TRUE(forward == reverse);
  EXPECT_TRUE(forward == shuffled);

  // Associativity: (a + b) + (c + d + e + f) == linear fold.
  obs::QuantileSketch left;
  left.merge(shards[0]);
  left.merge(shards[1]);
  obs::QuantileSketch right;
  for (std::size_t i = 2; i < kShards; ++i) right.merge(shards[i]);
  left.merge(right);
  EXPECT_TRUE(left == forward);
}

TEST(Sketch, MergeRefusesMismatchedErrorBounds) {
  obs::QuantileSketch a(0.01);
  obs::QuantileSketch b(0.02);
  b.add(7);
  EXPECT_THROW(a.merge(b), SimError);
}

TEST(Sketch, SnapshotRoundTrip) {
  obs::QuantileSketch s(0.02);
  for (const u64 v : lognormal_samples(3000, 0xD1CE)) s.add(v);
  s.add(0);  // exercise the zero bucket too
  snap::StateWriter w;
  s.save_state(w);
  snap::StateReader r(w.take(), "sketch-test");
  obs::QuantileSketch back(0.02);
  back.restore_state(r);
  r.expect_end();
  EXPECT_TRUE(s == back);

  // Restoring into a sketch configured with a different bound must
  // fail loudly — quantiles would silently lose their guarantee.
  snap::StateWriter w2;
  s.save_state(w2);
  snap::StateReader r2(w2.take(), "sketch-test");
  obs::QuantileSketch wrong(0.01);
  EXPECT_THROW(wrong.restore_state(r2), snap::SnapshotError);
}

// ---------------------------------------------------------------- slo

obs::SloConfig two_class_config() {
  obs::SloConfig cfg;
  cfg.classes = {
      obs::SloObjective{.name = "high", .latency_cycles = 100, .target = 0.9},
      obs::SloObjective{
          .name = "normal", .latency_cycles = 500, .target = 0.5}};
  cfg.long_window = 1000;
  cfg.short_window = 100;
  cfg.burn_threshold = 2.0;
  return cfg;
}

TEST(Slo, ClassifiesLatenciesAndCountsGoodJobs) {
  obs::SloMonitor mon(two_class_config());
  mon.record_latency(0, 10, 50);    // good (<= 100)
  mon.record_latency(0, 20, 100);   // good (boundary)
  mon.record_latency(0, 30, 101);   // bad
  mon.record(1, 40, false);         // failed job: bad by definition
  const obs::SloReport rep = mon.report();
  ASSERT_EQ(rep.classes.size(), 2u);
  EXPECT_EQ(rep.classes[0].jobs, 3u);
  EXPECT_EQ(rep.classes[0].good, 2u);
  EXPECT_EQ(rep.classes[1].jobs, 1u);
  EXPECT_EQ(rep.classes[1].good, 0u);
  EXPECT_EQ(rep.shards, 1u);
}

TEST(Slo, AlertsFireOnRisingEdgeOfBothWindows) {
  // target 0.9 => burn = bad_frac / 0.1. A solid run of bad jobs pushes
  // both windows' burn over 2.0 exactly once until the stream recovers.
  obs::SloMonitor mon(two_class_config());
  Cycle t = 0;
  for (int i = 0; i < 50; ++i) mon.record(0, t += 10, true);
  ASSERT_EQ(mon.report().classes[0].alerts, 0u);
  for (int i = 0; i < 20; ++i) mon.record(0, t += 10, false);
  const obs::SloReport mid = mon.report();
  EXPECT_EQ(mid.classes[0].alerts, 1u);  // rising edge counted once
  EXPECT_GT(mid.classes[0].worst_burn, 2.0);
  EXPECT_GT(mid.classes[0].first_alert, 500u);
  // Recovery: enough good jobs to clear the short window, then a second
  // bad burst fires a second (distinct) alert.
  for (int i = 0; i < 60; ++i) mon.record(0, t += 10, true);
  for (int i = 0; i < 20; ++i) mon.record(0, t += 10, false);
  EXPECT_EQ(mon.report().classes[0].alerts, 2u);
}

TEST(Slo, ReportMergeAddsCountsAndKeepsExtremes) {
  obs::SloMonitor a(two_class_config());
  obs::SloMonitor b(two_class_config());
  for (int i = 0; i < 30; ++i) a.record(0, 10 * (i + 1), i % 2 == 0);
  for (int i = 0; i < 20; ++i) b.record(0, 10 * (i + 1), false);
  obs::SloReport merged;  // starts empty: first merge adopts wholesale
  merged.merge(a.report());
  merged.merge(b.report());
  EXPECT_EQ(merged.shards, 2u);
  EXPECT_EQ(merged.classes[0].jobs, 50u);
  EXPECT_EQ(merged.classes[0].good, 15u);
  const double worst = std::max(a.report().classes[0].worst_burn,
                                b.report().classes[0].worst_burn);
  EXPECT_DOUBLE_EQ(merged.classes[0].worst_burn, worst);

  obs::SloConfig other = two_class_config();
  other.long_window = 999;
  obs::SloMonitor c(other);
  EXPECT_THROW(merged.merge(c.report()), SimError);
}

TEST(Slo, ReportFileRoundTrip) {
  obs::SloMonitor mon(two_class_config());
  for (int i = 0; i < 40; ++i) mon.record(0, 10 * (i + 1), i % 3 != 0);
  for (int i = 0; i < 25; ++i) mon.record(1, 10 * (i + 1), i % 5 != 0);
  const obs::SloReport rep = mon.report();
  const std::string path = ::testing::TempDir() + "fleet_obs_slo.json";
  rep.write_json(path);
  const obs::SloReport back = obs::read_slo_report(path);
  EXPECT_EQ(back.long_window, rep.long_window);
  EXPECT_EQ(back.short_window, rep.short_window);
  EXPECT_EQ(back.shards, rep.shards);
  ASSERT_EQ(back.classes.size(), rep.classes.size());
  for (std::size_t i = 0; i < rep.classes.size(); ++i) {
    EXPECT_EQ(back.classes[i].name, rep.classes[i].name);
    EXPECT_EQ(back.classes[i].jobs, rep.classes[i].jobs);
    EXPECT_EQ(back.classes[i].good, rep.classes[i].good);
    EXPECT_EQ(back.classes[i].alerts, rep.classes[i].alerts);
  }
  EXPECT_THROW(obs::read_slo_report(::testing::TempDir() + "missing.json"),
               SimError);
}

// Artifact writers create missing parent directories: paths are usually
// relative stems, and the working directory is the harness's choice
// (bench driver runs from the repo root, ctest from its binary dir) —
// a dump must not fail just because the directory does not exist yet.
TEST(Slo, ArtifactWriteCreatesParentDirectories) {
  obs::SloMonitor mon(two_class_config());
  mon.record(0, 50, true);
  const std::string path =
      ::testing::TempDir() + "fleet_obs_nested/deeper/slo.json";
  mon.report().write_json(path);
  EXPECT_EQ(obs::read_slo_report(path).classes.size(), 2u);
}

// ------------------------------------------------------------- flight

TEST(Flight, RingKeepsOnlyTheMostRecentEvents) {
  sim::Kernel kernel;
  obs::EventTracer flight(kernel, 8);
  const obs::TrackId t = flight.track("test");
  for (u64 i = 0; i < 20; ++i) {
    flight.complete(t, "ev" + std::to_string(i), i, i + 1);
  }
  EXPECT_EQ(flight.event_count(), 8u);
  EXPECT_EQ(flight.dropped(), 12u);
  // to_json must serialize oldest-first despite the rotated storage.
  const obs::ParsedTrace trace = obs::parse_trace(flight.to_json());
  ASSERT_EQ(trace.events.size(), 8u);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(trace.events[i].name, "ev" + std::to_string(12 + i));
  }
}

TEST(Flight, TriggerLatchesFirstReason) {
  sim::Kernel kernel;
  obs::EventTracer flight(kernel, 16);
  EXPECT_FALSE(flight.triggered());
  flight.trigger("watchdog:ocp0");
  flight.trigger("quarantine:ocp0");
  EXPECT_TRUE(flight.triggered());
  EXPECT_EQ(flight.reason(), "watchdog:ocp0");
  // Both triggers still land in the ring as instants.
  EXPECT_EQ(flight.event_count(), 2u);
}

TEST(Flight, SnapshotRoundTripPreservesRingAndTrigger) {
  sim::Kernel kernel;
  obs::EventTracer flight(kernel, 4);
  const obs::TrackId t = flight.track("alpha");
  const obs::TrackId u = flight.track("beta");
  for (u64 i = 0; i < 7; ++i) {
    flight.complete(i % 2 == 0 ? t : u, "ev" + std::to_string(i), i, i + 2,
                    {obs::arg("n", i), obs::arg("tag", "x")});
  }
  flight.trigger("unit-test");

  snap::StateWriter w;
  flight.save_state(w);

  sim::Kernel kernel2;
  obs::EventTracer back(kernel2, 4);
  // Tracks are verify-or-intern on restore: pre-interning in the same
  // order is legal, a different order is a SnapshotError (below).
  snap::StateReader r(w.bytes(), "flight-test");
  back.restore_state(r);
  r.expect_end();
  EXPECT_EQ(back.to_json(), flight.to_json());
  EXPECT_TRUE(back.triggered());
  EXPECT_EQ(back.reason(), "unit-test");
  EXPECT_EQ(back.dropped(), flight.dropped());

  sim::Kernel kernel3;
  obs::EventTracer skewed(kernel3, 4);
  (void)skewed.track("beta");  // wrong interning order
  snap::StateReader r2(w.bytes(), "flight-test");
  EXPECT_THROW(skewed.restore_state(r2), snap::SnapshotError);

  sim::Kernel kernel4;
  obs::EventTracer small(kernel4, 2);  // capacity mismatch
  snap::StateReader r3(w.bytes(), "flight-test");
  EXPECT_THROW(small.restore_state(r3), snap::SnapshotError);
}

TEST(Flight, FullTraceKeepsEveryEventAndRingNeedsCapacity) {
  sim::Kernel kernel;
  obs::EventTracer full(kernel);
  EXPECT_FALSE(full.bounded());
  const obs::TrackId t = full.track("test");
  for (u64 i = 0; i < 100; ++i) full.complete(t, "ev", i, i + 1);
  EXPECT_EQ(full.event_count(), 100u);
  EXPECT_EQ(full.dropped(), 0u);
  EXPECT_TRUE(obs::EventTracer(kernel, 1).bounded());
  EXPECT_THROW(obs::EventTracer(kernel, 0), SimError);
}

/// A hand-built flight image: ring cursor @p next, @p events spans on
/// one track "t", everything else zero.
std::vector<u8> flight_image(u64 capacity, u64 next, u64 events) {
  snap::StateWriter inner;
  inner.write_u64("tracks", 1);
  inner.write_string("t", "t");
  inner.write_u64("events", events);
  for (u64 i = 0; i < events; ++i) {
    inner.write_u8("ph", static_cast<u8>('X'));
    inner.write_u32("tid", 0);
    inner.write_u64("ts", i);
    inner.write_u64("dur", 1);
    inner.write_u64("flow", 0);
    inner.write_string("name", "ev" + std::to_string(i));
    inner.write_u64("nargs", 0);
  }
  snap::StateWriter w;
  w.write_u64("capacity", capacity);
  w.write_u64("next", next);
  w.write_u64("dropped", 0);
  w.write_bool("triggered", false);
  w.write_string("reason", "");
  w.write_u64("trigger_cycle", 0);
  w.write_bytes("ring", inner.take());
  return w.take();
}

TEST(Flight, RestoreRejectsRingCursorAndCountOutOfRange) {
  struct Case {
    u64 next;
    u64 events;
  };
  // Cursor past a full ring, cursor equal to capacity, more events than
  // capacity, and a nonzero cursor on a ring that is not full.
  for (const Case c : {Case{1'000'000, 4}, Case{4, 4}, Case{0, 5},
                       Case{2, 3}}) {
    sim::Kernel kernel;
    obs::EventTracer flight(kernel, 4);
    const obs::TrackId t = flight.track("t");
    flight.complete(t, "before", 0, 1);
    const std::string before = flight.to_json();
    snap::StateReader r(flight_image(4, c.next, c.events), "flight-test");
    EXPECT_THROW(flight.restore_state(r), snap::SnapshotError)
        << "next=" << c.next << " events=" << c.events;
    // Rejected before anything changed, and the ring still works.
    EXPECT_EQ(flight.to_json(), before);
    flight.complete(t, "after", 1, 2);
    EXPECT_EQ(flight.event_count(), 2u);
  }
  // A full ring with an in-range cursor restores and keeps recording.
  sim::Kernel kernel;
  obs::EventTracer flight(kernel, 4);
  snap::StateReader r(flight_image(4, 3, 4), "flight-test");
  flight.restore_state(r);
  flight.complete(flight.track("t"), "next", 9, 10);
  const obs::ParsedTrace trace = obs::parse_trace(flight.to_json());
  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_EQ(trace.events.back().name, "next");
}

// -------------------------------------------------------------- fleet

fleet::FleetConfig small_fleet(u32 shards) {
  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.base_seed = 0xF1EE'0B50ull;
  cfg.service.ocps = {
      svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
      svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2}};
  cfg.service.queue_depth = 64;
  cfg.warmup.jobs = 60;
  cfg.warmup.mean_gap = 150.0;
  cfg.warmup.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft};
  cfg.shard_load = cfg.warmup;
  cfg.shard_load.jobs = 40;
  cfg.verify_reproducible = false;
  return cfg;
}

TEST(FleetObs, ArmingIsPassiveAtFleetScale) {
  fleet::FleetConfig bare_cfg = small_fleet(4);
  const fleet::FleetReport bare = fleet::run_fleet(bare_cfg);

  fleet::FleetConfig armed_cfg = small_fleet(4);
  armed_cfg.obs.slo = true;
  armed_cfg.obs.slo_config.classes = {
      obs::SloObjective{
          .name = "high", .latency_cycles = 10'000, .target = 0.99},
      obs::SloObjective{
          .name = "normal", .latency_cycles = 50'000, .target = 0.9}};
  armed_cfg.obs.flight = true;
  armed_cfg.obs.flight_capacity = 256;
  const fleet::FleetReport armed = fleet::run_fleet(armed_cfg);

  ASSERT_EQ(bare.shard_results.size(), armed.shard_results.size());
  for (std::size_t i = 0; i < bare.shard_results.size(); ++i) {
    EXPECT_EQ(bare.shard_results[i].digest, armed.shard_results[i].digest)
        << "shard " << i;
    EXPECT_EQ(bare.shard_results[i].report.end,
              armed.shard_results[i].report.end);
  }
  EXPECT_TRUE(bare.e2e_sketch == armed.e2e_sketch);
  EXPECT_EQ(bare.peak_retained_samples, 0u);
  EXPECT_EQ(armed.peak_retained_samples, 0u);
  // SLO saw every completed job (no failures in a fault-free run).
  u64 slo_jobs = 0;
  for (const obs::SloClassReport& c : armed.slo.classes) slo_jobs += c.jobs;
  EXPECT_EQ(slo_jobs, armed.total_completed);
  // Healthy fleet: nothing tripped a flight recorder.
  EXPECT_EQ(armed.flight_triggers, 0u);
}

TEST(FleetObs, ShardSketchesFoldToTheFleetAggregateInAnyOrder) {
  fleet::FleetConfig cfg = small_fleet(5);
  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  ASSERT_EQ(rep.shard_results.size(), 5u);
  obs::QuantileSketch reverse;
  for (auto it = rep.shard_results.rbegin(); it != rep.shard_results.rend();
       ++it) {
    reverse.merge(it->e2e_sketch);
  }
  EXPECT_TRUE(reverse == rep.e2e_sketch);
  EXPECT_EQ(rep.e2e_sketch.count(), rep.total_completed);
}

TEST(FleetObs, FaultArmedFleetDumpsParseableFlightTraces) {
  fleet::FleetConfig cfg = small_fleet(2);
  // A permanently hung RAC on the kIdct worker; keep kIdct out of the
  // warm-up so the hang (and hence the trigger) happens inside the
  // shards, not the template.
  cfg.warmup.kinds = {svc::JobKind::kDft};
  cfg.service.faults.add(
      {.kind = fault::FaultKind::kRacHang, .ocp = 0, .prob = 1.0});
  cfg.service.retry = svc::RetryPolicy{.max_attempts = 3,
                                       .backoff_base = 1024,
                                       .backoff_mult = 2,
                                       .quarantine_after = 2,
                                       .watchdog_cycles = 8'192};
  cfg.obs.flight = true;
  cfg.obs.flight_capacity = 512;
  cfg.obs.flight_dump_stem = ::testing::TempDir() + "fleet_obs_test";
  const fleet::FleetReport rep = fleet::run_fleet(cfg);

  EXPECT_EQ(rep.flight_triggers, 2u);
  ASSERT_EQ(rep.flight_dumps.size(), 2u);
  for (const std::string& path : rep.flight_dumps) {
    const obs::ParsedTrace trace = obs::read_trace(path);
    EXPECT_FALSE(trace.events.empty());
    // The trigger instant must be in the dump with its reason.
    bool found = false;
    for (const obs::ParsedEvent& e : trace.events) {
      if (e.ph == 'i' && e.name == "flight_trigger") {
        const auto it = e.args.find("reason");
        ASSERT_NE(it, e.args.end());
        EXPECT_TRUE(it->second.s.rfind("watchdog:", 0) == 0 ||
                    it->second.s.rfind("quarantine:", 0) == 0)
            << it->second.s;
        found = true;
      }
    }
    EXPECT_TRUE(found) << path;
    // The ring is attached to the whole stack, so the dispatcher's own
    // tracks and the quarantine next to the trigger are in the dump.
    EXPECT_TRUE(std::any_of(trace.track_names.begin(),
                            trace.track_names.end(),
                            [](const std::string& t) {
                              return t.rfind("svc.worker.", 0) == 0;
                            }))
        << path;
    EXPECT_TRUE(std::any_of(trace.events.begin(), trace.events.end(),
                            [](const obs::ParsedEvent& e) {
                              return e.ph == 'i' && e.name == "quarantine";
                            }))
        << path;
  }
  for (const fleet::ShardResult& s : rep.shard_results) {
    EXPECT_TRUE(s.flight_triggered);
    EXPECT_FALSE(s.flight_reason.empty());
  }
}

}  // namespace
}  // namespace ouessant
