// Layer micros of the traced run. Each one times a bare public call
// stream of one layer, so a per-layer speed change shows without the
// rest of the stack around it:
//   fifo.ns_per_word_32    WidthFifo 32->32, one write and one read a cycle
//   fifo.ns_per_word_conv  WidthFifo 32->16, the width-converting path
//   bus.ns_per_beat        baseline::DmaEngine SRAM->SRAM 256-beat bursts
//   ouessant.ns_per_decode isa::decode over a microcode image
// Each micro runs several times and reports the median.
#include <stdexcept>

#include "baseline/dma.hpp"
#include "bench.hpp"
#include "fifo/width_fifo.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/isa.hpp"
#include "platform/soc.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ouessant;

/// Keeps each micro's result live so the timed loop is not elided.
volatile u64 g_sink = 0;

/// Stream @p words words through a WidthFifo; host ns per word written.
double fifo_stream(unsigned wr, unsigned rd, u32 words) {
  sim::Kernel kernel;
  fifo::WidthFifo f(kernel, "f", {.wr_width = wr, .rd_width = rd});
  u64 sink = 0;
  u64 next = 1;
  const auto t0 = Clock::now();
  while (f.writes() < words) {
    if (!f.full()) f.write(next++ & ((u64{1} << wr) - 1));
    if (!f.empty()) sink ^= f.read();
    kernel.tick();
  }
  const double ns = seconds_since(t0) * 1e9;
  g_sink = sink;
  return ns / static_cast<double>(f.writes());
}

/// Host ns per bus beat of @p passes DMA copies of 4096 words.
double dma_bursts(int passes) {
  constexpr u32 kWords = 4096;
  constexpr Addr kSrc = 0x4010'0000;
  constexpr Addr kDst = 0x4020'0000;
  platform::Soc soc;
  baseline::DmaEngine dma(soc.kernel(), "dma", soc.bus(), platform::kDmaBase);
  util::Rng rng(13);
  std::vector<u32> in(kWords);
  for (auto& w : in) w = rng.next_u32();
  soc.sram().load(kSrc, in);
  cpu::Gpp& gpp = soc.cpu();
  const u64 beats0 = soc.bus().master_totals().beats;
  const auto t0 = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    gpp.write32(dma.reg_base() + baseline::kDmaSrc, kSrc);
    gpp.write32(dma.reg_base() + baseline::kDmaDst, kDst);
    gpp.write32(dma.reg_base() + baseline::kDmaLen, kWords);
    gpp.write32(dma.reg_base() + baseline::kDmaBurst, 256);
    gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                baseline::kDmaGo | baseline::kDmaIe);
    gpp.wait_for_irq(dma.irq());
    gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                baseline::kDmaDone | baseline::kDmaIe);
  }
  const double ns = seconds_since(t0) * 1e9;
  if (soc.sram().dump(kDst, kWords) != in) {
    throw std::runtime_error("micro: DMA copy mismatch");
  }
  return ns / static_cast<double>(soc.bus().master_totals().beats - beats0);
}

/// Host ns per isa::decode over the IDCT stream program's image.
double decode_words(u32 rounds) {
  const std::vector<u32> image =
      core::build_stream_program({.in_words = 64, .out_words = 64, .burst = 8})
          .image();
  u64 sink = 0;
  const auto t0 = Clock::now();
  for (u32 r = 0; r < rounds; ++r) {
    for (u32 word : image) {
      const auto ins = isa::decode(word);
      sink += ins ? ins->offset + static_cast<u64>(ins->op) : 1;
    }
  }
  const double ns = seconds_since(t0) * 1e9;
  g_sink = sink;
  return ns / (static_cast<double>(rounds) * static_cast<double>(image.size()));
}

template <typename F>
double median_of(Tracer& tracer, const char* name, int reps, F&& body) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(&tracer, name, static_cast<u64>(i));
    v.push_back(body());
  }
  return quantile(v, 0.5);
}

}  // namespace

std::map<std::string, double> run_micros(Tracer& tracer, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  const int reps = tiny ? 1 : 5;
  std::map<std::string, double> out;
  out["fifo.ns_per_word_32"] = median_of(tracer, "micro.fifo32", reps, [&] {
    return fifo_stream(32, 32, tiny ? 4096 : 400'000);
  });
  out["fifo.ns_per_word_conv"] = median_of(tracer, "micro.fifo_conv", reps, [&] {
    return fifo_stream(32, 16, tiny ? 4096 : 200'000);
  });
  out["bus.ns_per_beat"] = median_of(tracer, "micro.dma", reps, [&] {
    return dma_bursts(tiny ? 1 : 64);
  });
  out["ouessant.ns_per_decode"] = median_of(tracer, "micro.decode", reps, [&] {
    return decode_words(tiny ? 1000 : 200'000);
  });
  return out;
}

}  // namespace perfbench
