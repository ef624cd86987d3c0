// Per-layer counters of one simulated SoC, read through the public
// accessors (Kernel::sched_stats, Stats::all, InterconnectModel totals,
// Controller::stats, WidthFifo::writes) before and after a timed op
// stream, and turned into per-op layer metrics.
#pragma once

#include <map>
#include <string>

#include "bench.hpp"
#include "platform/soc.hpp"

namespace perfbench {

struct StackCounters {
  ouessant::sim::SchedulerStats sched;
  u64 beats = 0;
  u64 batched_chunks = 0;
  u64 cpu_beats = 0;
  ouessant::core::ControllerStats ctrl;  ///< summed over every OCP
  u64 decode_hits = 0;
  u64 decode_misses = 0;
  u64 fifo_words = 0;   ///< words written into every OCP FIFO
  u32 fifo_peak_bits = 0;

  static StackCounters read(ouessant::platform::Soc& soc) {
    StackCounters c;
    c.sched = soc.kernel().sched_stats();
    c.beats = soc.bus().master_totals().beats;
    c.batched_chunks = soc.bus().batched_chunks();
    for (const auto& [key, value] : soc.kernel().stats().all()) {
      if (key.ends_with(".cpu.beats")) c.cpu_beats += value;
    }
    for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
      auto& ocp = soc.ocp(i);
      const auto s = ocp.controller().stats();
      c.ctrl.instructions += s.instructions;
      c.ctrl.fetch_cycles += s.fetch_cycles;
      c.ctrl.decode_cycles += s.decode_cycles;
      c.ctrl.xfer_cycles += s.xfer_cycles;
      c.ctrl.exec_wait_cycles += s.exec_wait_cycles;
      c.decode_hits += ocp.controller().decode_cache_hits();
      c.decode_misses += ocp.controller().decode_cache_misses();
      for (const auto* fifos : {&ocp.input_fifos(), &ocp.output_fifos()}) {
        for (const auto& f : *fifos) {
          c.fifo_words += f->writes();
          c.fifo_peak_bits = std::max(c.fifo_peak_bits, f->max_level_bits());
        }
      }
    }
    return c;
  }

  [[nodiscard]] u64 ctrl_busy() const {
    return ctrl.fetch_cycles + ctrl.decode_cycles + ctrl.xfer_cycles +
           ctrl.exec_wait_cycles;
  }
};

/// Layer metrics of the op stream between @p a and @p b: @p ops ops,
/// @p cycles simulated cycles, @p host_s host seconds.
inline void add_stack_layers(std::map<std::string, double>& L,
                             const StackCounters& a, const StackCounters& b,
                             u64 ops, u64 cycles, double host_s) {
  const double n = std::max<double>(static_cast<double>(ops), 1);
  const auto d = [](u64 x, u64 y) { return static_cast<double>(x - y); };
  const double ticks = d(b.sched.ticks, a.sched.ticks);
  const double lookups =
      d(b.decode_hits, a.decode_hits) + d(b.decode_misses, a.decode_misses);
  const double busy = d(b.ctrl_busy(), a.ctrl_busy());
  L["sim.ticks_per_op"] = ticks / n;
  L["sim.ff_frac"] =
      d(b.sched.fast_forward_cycles, a.sched.fast_forward_cycles) /
      std::max<double>(static_cast<double>(cycles), 1);
  L["sim.wakeups_per_op"] = d(b.sched.wakeups, a.sched.wakeups) / n;
  L["sim.host_ns_per_tick"] = host_s * 1e9 / std::max(ticks, 1.0);
  L["bus.beats_per_op"] = d(b.beats, a.beats) / n;
  L["bus.batched_chunks_per_op"] = d(b.batched_chunks, a.batched_chunks) / n;
  L["drv.cpu_beats_per_op"] = d(b.cpu_beats, a.cpu_beats) / n;
  L["fifo.words_per_op"] = d(b.fifo_words, a.fifo_words) / n;
  L["fifo.peak_level_bits"] = b.fifo_peak_bits;
  L["ouessant.instr_per_op"] =
      d(b.ctrl.instructions, a.ctrl.instructions) / n;
  L["ouessant.decode_hit_frac"] =
      lookups > 0 ? d(b.decode_hits, a.decode_hits) / lookups : 0.0;
  L["ouessant.xfer_cycles_per_op"] =
      d(b.ctrl.xfer_cycles, a.ctrl.xfer_cycles) / n;
  L["ouessant.exec_wait_frac"] =
      d(b.ctrl.exec_wait_cycles, a.ctrl.exec_wait_cycles) /
      std::max(busy, 1.0);
}

}  // namespace perfbench
