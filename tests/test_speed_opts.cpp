// Differential determinism for the raw-speed optimizations: batched
// multi-beat bus windows and the decoded-microcode cache are pure
// scheduling/host-work optimizations, so every run with them on must be
// bit-identical — final cycle, memory contents, and every Stats counter
// — to the same run with them forced off (bus::set_batching(false),
// Controller::set_decode_cache(false)).
//
// The second half covers observers. The event tracer reads only
// per-transaction facts, so it rides the batched windows: its trace must
// be byte-identical with batching on and off. An observer that acts on
// each beat or cycle (bus fault hook, write snooper, kernel sampler)
// must silently disable the batched fast path — batched_chunks() stays
// 0 — without changing the results.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/dma.hpp"
#include "drv/session.hpp"
#include "fault/hooks.hpp"
#include "obs/tracer.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "svc/service.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

/// Per-run knobs under test plus the optional observers: the tracer,
/// which must ride the batched path, and the per-beat observers whose
/// mere presence must force the per-beat path.
struct Config {
  bool batching = true;
  bool decode_cache = true;
  bool tracer = false;
  bool fault_hook = false;
  bool snooper = false;
  bool sampler = false;
};

struct RunResult {
  Cycle final_cycle = 0;
  std::vector<u32> memory;
  std::map<std::string, u64> stats;
  u64 batched_chunks = 0;
  u64 decode_hits = 0;
  std::size_t awake_at_end = 0;
  std::string trace_json;  ///< EventTracer::to_json(), when traced
};

/// The published speed counters legitimately differ between the on/off
/// configurations under comparison (that is what the knobs do) — drop
/// them before demanding bit-identity of everything else.
std::map<std::string, u64> without_speed_counters(
    std::map<std::string, u64> stats) {
  for (auto it = stats.begin(); it != stats.end();) {
    const std::string& key = it->first;
    const bool speed_counter = key.ends_with(".batched_chunks") ||
                               key.ends_with(".decode_hits") ||
                               key.ends_with(".decode_misses");
    it = speed_counter ? stats.erase(it) : std::next(it);
  }
  return stats;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_cycle, b.final_cycle);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(without_speed_counters(a.stats), without_speed_counters(b.stats));
}

/// Never fires — its mere installation must force per-beat arbitration.
class BenignBusHook : public fault::BusFaultHook {
 public:
  bool beat_error(const std::string&, Addr, bool, Cycle) override {
    return false;
  }
};

/// Arm the requested observers; returns the tracer (if any) so it stays
/// alive for the run.
std::unique_ptr<obs::EventTracer> arm(platform::Soc& soc, const Config& cfg,
                                      BenignBusHook& hook, u64& scratch) {
  soc.bus().set_batching(cfg.batching);
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    soc.ocp(i).controller().set_decode_cache(cfg.decode_cache);
  }
  std::unique_ptr<obs::EventTracer> tracer;
  if (cfg.tracer) {
    tracer = std::make_unique<obs::EventTracer>(soc.kernel());
    soc.bus().set_tracer(tracer.get());
  }
  if (cfg.fault_hook) soc.bus().set_fault_hook(&hook);
  if (cfg.snooper) {
    soc.bus().add_write_snooper(
        [&scratch](Addr, const bus::BusMasterPort&) { ++scratch; });
  }
  if (cfg.sampler) {
    soc.kernel().add_sampler([&scratch](Cycle) { ++scratch; });
  }
  return tracer;
}

/// The batched window's best case: the discrete DMA engine moving
/// 1024 words SRAM-to-SRAM at 64 beats per grant, interrupt completion,
/// two passes (the second re-uses the programmed engine).
RunResult run_dma_copy(const Config& cfg) {
  constexpr u32 kWords = 1024;
  constexpr Addr kSrc = 0x4010'0000;
  constexpr Addr kDst = 0x4020'0000;
  platform::Soc soc;
  baseline::DmaEngine dma(soc.kernel(), "dma", soc.bus(),
                          platform::kDmaBase);
  BenignBusHook hook;
  u64 scratch = 0;
  const auto tracer = arm(soc, cfg, hook, scratch);
  util::Rng rng(31);
  std::vector<u32> in(kWords);
  for (auto& w : in) w = rng.next_u32();
  soc.sram().load(kSrc, in);
  cpu::Gpp& gpp = soc.cpu();
  for (int pass = 0; pass < 2; ++pass) {
    gpp.write32(dma.reg_base() + baseline::kDmaSrc, kSrc);
    gpp.write32(dma.reg_base() + baseline::kDmaDst, kDst);
    gpp.write32(dma.reg_base() + baseline::kDmaLen, kWords);
    gpp.write32(dma.reg_base() + baseline::kDmaBurst, 64);
    gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                baseline::kDmaGo | baseline::kDmaIe);
    gpp.wait_for_irq(dma.irq());
    gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                baseline::kDmaDone | baseline::kDmaIe);  // ack
  }
  RunResult r;
  r.final_cycle = soc.kernel().now();
  r.memory = soc.sram().dump(kDst, kWords);
  EXPECT_EQ(r.memory, in);
  r.stats = soc.kernel().stats().all();
  r.batched_chunks = soc.bus().batched_chunks();
  r.awake_at_end = soc.kernel().awake_count();
  if (tracer != nullptr) r.trace_json = tracer->to_json();
  return r;
}

/// A traced multi-kind service: IDCT, DFT and FIR workers plus one
/// linked dequant->IDCT chain under open-loop load, the tracer wired
/// through every layer (bus, controllers, RACs, dispatcher, sessions).
RunResult run_traced_service(bool batching) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 1},
              svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 1}};
  cfg.chains = {svc::ChainSpec{.max_batch = 2}};
  cfg.queue_depth = 128;
  svc::OffloadService service(std::move(cfg));
  service.soc().bus().set_batching(batching);
  obs::EventTracer tracer(service.soc().kernel());
  service.attach_tracer(tracer);
  svc::WorkloadConfig wl;
  wl.jobs = 80;
  wl.mean_gap = 700.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir,
              svc::JobKind::kJpegChain};
  wl.seed = 33;
  const svc::ServiceReport rep = service.run(wl);
  EXPECT_EQ(rep.completed, wl.jobs);
  RunResult r;
  r.final_cycle = service.soc().kernel().now();
  r.stats = service.soc().kernel().stats().all();
  r.batched_chunks = service.soc().bus().batched_chunks();
  r.trace_json = tracer.to_json();
  return r;
}

/// The decode cache's best case: the same stream microcode re-fetched
/// and re-decoded for every frame of a repeated IDCT invocation.
RunResult run_idct_frames(const Config& cfg) {
  platform::Soc soc;
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  BenignBusHook hook;
  u64 scratch = 0;
  const auto tracer = arm(soc, cfg, hook, scratch);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
      {.in_words = 64, .out_words = 64, .burst = 64}));
  util::Rng rng(32);
  RunResult r;
  for (int frame = 0; frame < 3; ++frame) {
    std::vector<u32> in(64);
    for (auto& w : in) {
      w = static_cast<u32>(util::to_word(rng.range(-30000, 30000)));
    }
    session.put_input(in);
    if (frame % 2 == 0) {
      session.run_poll();
    } else {
      session.run_irq();
    }
    const auto out = session.get_output();
    r.memory.insert(r.memory.end(), out.begin(), out.end());
    soc.cpu().spend(500);  // idle gap: the gated run fast-forwards here
  }
  r.final_cycle = soc.kernel().now();
  r.stats = soc.kernel().stats().all();
  r.batched_chunks = soc.bus().batched_chunks();
  r.decode_hits = ocp.controller().decode_cache_hits();
  r.awake_at_end = soc.kernel().awake_count();
  return r;
}

// ---------------------------------------------------------------------
// Passivity: optimizations on == optimizations off, bit for bit.

TEST(SpeedOpts, DmaBatchingOnMatchesOff) {
  const RunResult on = run_dma_copy({});
  const RunResult off = run_dma_copy({.batching = false});
  expect_identical(on, off);
  EXPECT_GT(on.batched_chunks, 0u) << "batched fast path never engaged";
  EXPECT_EQ(off.batched_chunks, 0u);
}

TEST(SpeedOpts, IdctDecodeCacheOnMatchesOff) {
  const RunResult on = run_idct_frames({});
  const RunResult off = run_idct_frames({.decode_cache = false});
  expect_identical(on, off);
  EXPECT_GT(on.decode_hits, 0u) << "decode cache never hit";
  EXPECT_EQ(off.decode_hits, 0u);
}

TEST(SpeedOpts, IdctAllOptsOnMatchesAllOff) {
  const RunResult on = run_idct_frames({});
  const RunResult off =
      run_idct_frames({.batching = false, .decode_cache = false});
  expect_identical(on, off);
  EXPECT_GT(on.batched_chunks, 0u);
}

TEST(SpeedOpts, OptimizedRunIsRepeatable) {
  expect_identical(run_dma_copy({}), run_dma_copy({}));
  expect_identical(run_idct_frames({}), run_idct_frames({}));
}

// ---------------------------------------------------------------------
// Trace identity: the tracer rides the batched windows, and what it
// records is byte-identical to the per-beat loop's trace.

TEST(SpeedOpts, TraceIdenticalWithBatchingOnAndOff) {
  const RunResult on = run_dma_copy({.tracer = true});
  const RunResult off = run_dma_copy({.batching = false, .tracer = true});
  expect_identical(on, off);
  expect_identical(run_dma_copy({}), on);  // tracing stays passive
  EXPECT_GT(on.batched_chunks, 0u) << "tracing forced the per-beat path";
  EXPECT_EQ(off.batched_chunks, 0u);
  EXPECT_NE(on.trace_json.find("\"wr\""), std::string::npos);
  EXPECT_EQ(on.trace_json, off.trace_json);

  const RunResult svc_on = run_traced_service(true);
  const RunResult svc_off = run_traced_service(false);
  expect_identical(svc_on, svc_off);
  EXPECT_GT(svc_on.batched_chunks, 0u);
  EXPECT_EQ(svc_on.trace_json, svc_off.trace_json);
}

// ---------------------------------------------------------------------
// Fallback: an observer that acts on each beat or cycle must force
// per-beat arbitration (batched_chunks() == 0) without changing a bit.

TEST(SpeedOpts, FaultHookForcesPerBeatPath) {
  const RunResult hooked = run_dma_copy({.fault_hook = true});
  expect_identical(run_dma_copy({}), hooked);
  EXPECT_EQ(hooked.batched_chunks, 0u);
}

TEST(SpeedOpts, WriteSnooperForcesPerBeatPath) {
  const RunResult snooped = run_dma_copy({.snooper = true});
  expect_identical(run_dma_copy({}), snooped);
  EXPECT_EQ(snooped.batched_chunks, 0u);
}

TEST(SpeedOpts, SamplerForcesPerBeatPath) {
  const RunResult sampled = run_dma_copy({.sampler = true});
  expect_identical(run_dma_copy({}), sampled);
  EXPECT_EQ(sampled.batched_chunks, 0u);
}

// ---------------------------------------------------------------------
// Quiescence: with everything idle after the workload, no component may
// still be ticking — the tick loop must be fully asleep.

TEST(SpeedOpts, RunEndsFullyQuiescent) {
  EXPECT_EQ(run_dma_copy({}).awake_at_end, 0u);
  EXPECT_EQ(run_idct_frames({}).awake_at_end, 0u);
}

}  // namespace
}  // namespace ouessant
