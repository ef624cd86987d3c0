// Raw-simulator-speed guard: host cycles/sec with every scheduling and
// event-batching optimization on vs forced off (the seed tree: ungated
// kernel, per-beat bus, no decode cache).
//
// Four workloads cover the hot paths quiescence gating, the batched-burst
// windows and the decoded-microcode cache accelerate:
//   idct_invoke   repeated 64-word IDCT invocations (E1's Table-I HW
//                 path, polling driver): short bursts + a fetch/decode-
//                 heavy microcode loop — the decode cache's best case.
//   burst_xfer    the discrete DMA engine (E5's baseline mover) bursting
//                 4096 words SRAM-to-SRAM at 256 beats/grant, interrupt
//                 driver: beat-dominated with every window batchable —
//                 the batched window's best case.
//   serve_multi   the offload service fanning jobs over 4 IDCT workers
//                 on one AHB (serve_multi_ocp's shape): contention,
//                 IRQs, and scheduler traffic mixed in.
//   idle_dft      duty-cycled 256-point DFT frames, interrupt driver:
//                 each frame blocks on exec (the ~2.5k-cycle compute
//                 countdown) and then the whole SoC idles until the next
//                 frame period — gating's best case, where a quiet SoC
//                 fast-forwards in one jump.
//
// Each workload runs both configurations, proves the simulated clock is
// bit-identical (the optimizations must be invisible), and reports
// cycles/sec for both plus the ratio. Only the steady-state invocation
// loop is timed — SoC construction, program install, and the backdoor
// input load are identical host-side costs in both modes and would only
// dilute the ratio. Host-clock metrics make the scenario
// non-deterministic; run-to-run payload comparisons skip it.
//
// Next to the timings it reports how often each fast path engaged in
// both configurations: batched bus chunks and decode-cache hits/misses.
// Those counts are deterministic, so run_tier1.sh's golden stage pins
// them to the committed BENCH_speed.json on any host — a fast path that
// stops engaging fails the gate even when the machine is noisy. The
// scenario fails itself if the "off" configuration engages either one.
#include "scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "baseline/dma.hpp"
#include "drv/session.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "rac/idct.hpp"
#include "svc/service.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

/// Force every host-speed optimization off, reproducing the seed's
/// tick-everything, per-beat, per-decode tree.
void strip_optimizations(platform::Soc& soc) {
  soc.kernel().set_gating(false);
  soc.bus().set_batching(false);
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    soc.ocp(i).controller().set_decode_cache(false);
  }
}

/// One timed repetition: simulated cycles, host seconds, and how often
/// each fast path engaged — deterministic counts, unlike the seconds.
struct Run {
  u64 cycles = 0;
  double seconds = 0;
  u64 batched_chunks = 0;  ///< bus grant chunks moved by a batched window
  u64 decode_hits = 0;     ///< decode-cache hits, summed over the OCPs
  u64 decode_misses = 0;
};

struct SpeedSample {
  Run run;              ///< the last repetition (counts are the same in all)
  double best_cps = 0;  ///< best cycles/sec over the repetitions
};

/// Repeat @p one_run until @p budget_s of measured host time is spent,
/// at least twice, keeping the fastest repetition. Best-of is the right
/// statistic on a shared host: load spikes only ever slow a run down.
template <typename F>
SpeedSample measure(F&& one_run, double budget_s = 0.2) {
  SpeedSample s;
  double spent = 0;
  int reps = 0;
  while (spent < budget_s || reps < 2) {
    s.run = one_run();
    spent += s.run.seconds;
    ++reps;
    if (s.run.seconds > 0) {
      s.best_cps = std::max(
          s.best_cps, static_cast<double>(s.run.cycles) / s.run.seconds);
    }
  }
  return s;
}

/// Time @p body on @p soc; the engagement counts are read afterwards.
template <typename F>
Run timed(platform::Soc& soc, F&& body) {
  sim::Kernel& k = soc.kernel();
  const Cycle c0 = k.now();
  const auto t0 = std::chrono::steady_clock::now();
  body();
  Run r;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.cycles = k.now() - c0;
  r.batched_chunks = soc.bus().batched_chunks();
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    r.decode_hits += soc.ocp(i).controller().decode_cache_hits();
    r.decode_misses += soc.ocp(i).controller().decode_cache_misses();
  }
  return r;
}

std::vector<u32> signal_words(u32 n, u32 seed) {
  util::Rng rng(seed);
  std::vector<u32> in(n);
  for (auto& w : in) {
    w = static_cast<u32>(util::to_word(rng.range(-30000, 30000)));
  }
  return in;
}

Run run_idct_invoke(bool optimized) {
  platform::Soc soc;
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  if (!optimized) strip_optimizations(soc);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
                      {.in_words = 64, .out_words = 64, .burst = 64}),
                  /*timed_program=*/false);
  session.put_input(signal_words(64, 7));
  // mvtc re-reads the same SRAM block each frame; nothing consumes it,
  // so the input is loaded once and the loop is pure invocation.
  return timed(soc, [&] {
    for (int frame = 0; frame < 256; ++frame) session.run_poll();
  });
}

Run run_burst_xfer(bool optimized) {
  constexpr u32 kWords = 4096;
  constexpr Addr kSrc = 0x4010'0000;
  constexpr Addr kDst = 0x4020'0000;
  platform::Soc soc;
  baseline::DmaEngine dma(soc.kernel(), "dma", soc.bus(),
                          platform::kDmaBase);
  if (!optimized) strip_optimizations(soc);
  util::Rng rng(13);
  std::vector<u32> in(kWords);
  for (auto& w : in) w = rng.next_u32();
  soc.sram().load(kSrc, in);
  cpu::Gpp& gpp = soc.cpu();
  // Interrupt mode: the CPU sleeps on the IRQ line and the engine sleeps
  // while its port is busy, so each 256-beat window fast-forwards in one
  // jump when batching is on.
  return timed(soc, [&] {
    for (int pass = 0; pass < 16; ++pass) {
      gpp.write32(dma.reg_base() + baseline::kDmaSrc, kSrc);
      gpp.write32(dma.reg_base() + baseline::kDmaDst, kDst);
      gpp.write32(dma.reg_base() + baseline::kDmaLen, kWords);
      gpp.write32(dma.reg_base() + baseline::kDmaBurst, 256);
      gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                  baseline::kDmaGo | baseline::kDmaIe);
      gpp.wait_for_irq(dma.irq());
      gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                  baseline::kDmaDone | baseline::kDmaIe);  // ack
    }
  });
}

Run run_serve_multi(bool optimized) {
  svc::ServiceConfig cfg;
  for (int i = 0; i < 4; ++i) {
    cfg.ocps.push_back(
        svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1});
  }
  cfg.queue_depth = 256;
  svc::OffloadService service(std::move(cfg));
  if (!optimized) strip_optimizations(service.soc());
  svc::WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 40.0;
  wl.seed = svc::kDefaultServiceSeed;
  return timed(service.soc(), [&] { service.run(wl); });
}

Run run_idle_dft(bool optimized) {
  // Cycles between frame starts — the inter-job idle a periodic signal-
  // processing deployment spends waiting for the next buffer.
  constexpr u64 kFrameSlack = 20'000;
  platform::Soc soc;
  rac::DftRac dft(soc.kernel(), "dft", {.points = 256});
  core::Ocp& ocp = soc.add_ocp(dft);
  if (!optimized) strip_optimizations(soc);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 512,
                           .out_words = 512});
  // overlap=false: move all input, block on exec, then move the output —
  // the exec window is a pure wait (controller in exec-wait, bus idle,
  // CPU asleep on the IRQ line).
  session.install(core::build_stream_program({.in_words = 512,
                                              .out_words = 512,
                                              .burst = 64,
                                              .overlap = false}),
                  /*timed_program=*/false);
  const std::vector<u32> in = signal_words(512, 11);
  return timed(soc, [&] {
    for (int frame = 0; frame < 50; ++frame) {
      session.put_input(in);
      session.run_irq();
      soc.cpu().spend(kFrameSlack);
    }
  });
}

void run_point(const exp::ParamMap& params, exp::Result& result) {
  const std::string& workload = params.get_str("workload");
  Run (*one)(bool) = nullptr;
  if (workload == "idct_invoke") {
    one = run_idct_invoke;
  } else if (workload == "burst_xfer") {
    one = run_burst_xfer;
  } else if (workload == "serve_multi") {
    one = run_serve_multi;
  } else {
    one = run_idle_dft;
  }
  const SpeedSample opt = measure([&] { return one(true); });
  const SpeedSample base = measure([&] { return one(false); });
  if (opt.run.cycles != base.run.cycles) {
    result.fail("optimizations changed the simulated clock: " +
                std::to_string(opt.run.cycles) + " vs " +
                std::to_string(base.run.cycles) + " cycles");
  }
  if (base.run.batched_chunks != 0 || base.run.decode_hits != 0) {
    result.fail("a fast path engaged with the optimizations off");
  }
  result.add_metric("sim_cycles", opt.run.cycles);
  for (const auto& [prefix, s] : {std::pair{"opt", &opt}, {"base", &base}}) {
    const std::string p = prefix;
    result.add_metric(p + "_batched_chunks", s->run.batched_chunks);
    result.add_metric(p + "_decode_hits", s->run.decode_hits);
    result.add_metric(p + "_decode_misses", s->run.decode_misses);
  }
  result.add_metric("opt_cps", opt.best_cps);
  result.add_metric("base_cps", base.best_cps);
  result.add_metric("speedup", opt.best_cps / base.best_cps);
}

}  // namespace

void register_speed(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "sim_speed",
      .experiment = "guard",
      .title = "raw simulator speed: gating + batched beats + decode cache "
               "on vs off",
      .grid = {{.name = "workload",
                .values = {"idct_invoke", "burst_xfer", "serve_multi",
                           "idle_dft"}}},
      .deterministic = false,
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
