// Microbenchmarks (google-benchmark) for the simulator substrate itself:
// simulation throughput, FIFO storage and conversion, encoding, assembly,
// and the transform datapaths. These guard the usability of the library
// (a slow simulator makes the experiment benches painful), not a paper
// result.
//
// The host-speed guard (gated vs ungated kernel, batched vs per-beat bus,
// decode cache on vs off) is the "sim_speed" scenario (bench_speed.cpp),
// run through ouessant_bench like every other experiment.
#include <benchmark/benchmark.h>

#include "drv/session.hpp"
#include "fifo/bit_queue.hpp"
#include "fifo/width_fifo.hpp"
#include "ouessant/assembler.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/passthrough.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"
#include "util/transforms.hpp"

namespace {

using namespace ouessant;

/// Simulated cycles per host second while an OCP streams: a passthrough
/// RAC copies 256-word blocks moved in 64-beat bursts, back to back, so
/// the bus, both FIFOs and the controller are busy on most cycles and the
/// kernel has little idle time to fast-forward (ff_frac reports how much).
void BM_KernelTickThroughput(benchmark::State& state) {
  constexpr u32 kWords = 256;
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", kWords, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = kWords,
                           .out_words = kWords});
  session.install(core::build_stream_program(
                      {.in_words = kWords, .out_words = kWords, .burst = 64}),
                  /*timed_program=*/false);
  std::vector<u32> in(kWords);
  util::Rng rng(3);
  for (auto& w : in) w = rng.next_u32();
  session.put_input(in);
  const sim::Kernel& kernel = soc.kernel();
  const Cycle start = kernel.now();
  const u64 ff_start = kernel.sched_stats().fast_forward_cycles;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_poll());
  }
  const Cycle cycles = kernel.now() - start;
  state.SetItemsProcessed(static_cast<i64>(cycles));
  state.counters["ff_frac"] =
      static_cast<double>(kernel.sched_stats().fast_forward_cycles -
                          ff_start) /
      static_cast<double>(cycles == 0 ? 1 : cycles);
}
BENCHMARK(BM_KernelTickThroughput);

/// FIFO storage alone, no kernel: push one @p wr-bit word, then pop every
/// complete @p rd-bit word. Items are words pushed.
void bit_queue_stream(benchmark::State& state, unsigned wr, unsigned rd) {
  fifo::BitQueue q(4096);
  u64 x = 1;
  for (auto _ : state) {
    q.push(x++, wr);
    while (q.size_bits() >= rd) benchmark::DoNotOptimize(q.pop(rd));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BitQueue32(benchmark::State& state) { bit_queue_stream(state, 32, 32); }
BENCHMARK(BM_BitQueue32);

void BM_BitQueueConv(benchmark::State& state) {
  bit_queue_stream(state, 32, 48);
}
BENCHMARK(BM_BitQueueConv);

void BM_FifoWidthConversion(benchmark::State& state) {
  sim::Kernel kernel;
  fifo::WidthFifo f(kernel, "f", {.wr_width = 32, .rd_width = 48,
                                  .capacity_bits = 48 * 64});
  u64 x = 1;
  for (auto _ : state) {
    f.write(x++);
    kernel.tick();
    if (!f.empty()) benchmark::DoNotOptimize(f.read());
    kernel.tick();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoWidthConversion);

void BM_IsaEncodeDecode(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    isa::Instruction ins{.op = isa::Opcode::kMvtc,
                         .bank = static_cast<u8>(rng.below(8)),
                         .offset = rng.below(1u << 14),
                         .fifo = static_cast<u8>(rng.below(4)),
                         .len = 1 + rng.below(256)};
    benchmark::DoNotOptimize(isa::decode(isa::encode(ins)));
  }
}
BENCHMARK(BM_IsaEncodeDecode);

void BM_AssembleFigure4(benchmark::State& state) {
  const std::string src = core::disassemble(core::figure4_program().image());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::assemble(src));
  }
}
BENCHMARK(BM_AssembleFigure4);

void BM_FixedFft256(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<i32> re(256), im(256);
  for (u32 i = 0; i < 256; ++i) {
    re[i] = rng.range(-100000, 100000);
    im[i] = rng.range(-100000, 100000);
  }
  for (auto _ : state) {
    auto r = re;
    auto i2 = im;
    util::fixed_fft(r, i2);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FixedFft256);

void BM_FixedIdct8x8(benchmark::State& state) {
  util::Rng rng(8);
  i32 coef[64];
  for (auto& c : coef) c = rng.range(-1024, 1023);
  i32 pix[64];
  for (auto _ : state) {
    util::fixed_idct8x8(coef, pix);
    benchmark::DoNotOptimize(pix);
  }
}
BENCHMARK(BM_FixedIdct8x8);

void BM_EndToEndInvocation(benchmark::State& state) {
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 64, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
                      {.in_words = 64, .out_words = 64, .burst = 64}),
                  /*timed_program=*/false);
  util::Rng rng(2);
  std::vector<u32> in(64);
  for (auto& w : in) w = rng.next_u32();
  for (auto _ : state) {
    session.put_input(in);
    benchmark::DoNotOptimize(session.run_poll());
  }
}
BENCHMARK(BM_EndToEndInvocation);

}  // namespace

BENCHMARK_MAIN();
