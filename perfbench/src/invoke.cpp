// invoke_idct and invoke_convert: one caller, closed loop, driving one
// OCP through drv::OcpSession::run_poll — the paper's Table-I hardware
// path. Each op stages a distinct seeded block, runs it, and reads the
// result back; after the timed stream every result is checked against
// an independent reference (svc::reference_output for the IDCT, the
// identity for the width-converting passthrough).
#include <exception>

#include "bench.hpp"
#include "stack.hpp"
#include "drv/session.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "rac/passthrough.hpp"
#include "svc/latency.hpp"
#include "svc/workload.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ouessant;

struct InvokeShape {
  bool idct = true;     ///< IdctRac, else a width-converting PassthroughRac
  u32 words = 64;       ///< 32-bit words in and out per op
  u32 burst = 64;       ///< beats per mvtc/mvfc
  unsigned rac_width = 32;
  u32 ops = 0;          ///< ops per round
  u32 prefix_ops = 0;   ///< ops the shadow identity check replays
  u32 slice_ops = 0;    ///< ops per rate slice (~10 ms of host time)
};

class InvokeWorkload final : public Workload {
 public:
  InvokeWorkload(InvokeShape shape, u64 seed) : shape_(shape) {
    util::Rng rng(seed);
    inputs_.resize(shape_.ops);
    for (auto& block : inputs_) {
      block.resize(shape_.words);
      for (auto& w : block) {
        w = shape_.idct ? util::to_word(rng.range(-20000, 20000))
                        : rng.next_u32();
      }
    }
  }

  Round round(Tracer* tracer) override {
    return run_ops(shape_.ops, /*optimized=*/true, tracer);
  }

  std::string shadow_check() override {
    const Round on = run_ops(shape_.prefix_ops, true, nullptr);
    const Round off = run_ops(shape_.prefix_ops, false, nullptr);
    if (!on.error.empty()) return on.error;
    if (!off.error.empty()) return "unoptimized: " + off.error;
    if (!(on.sim == off.sim)) {
      return "optimizations changed the simulated result (cycles " +
             std::to_string(on.sim.cycles) + " vs " +
             std::to_string(off.sim.cycles) + ")";
    }
    return "";
  }

  double capacity_jpmc(const Round& first) override {
    return first.sim.jobs_per_mcycle;
  }

 private:
  Round run_ops(u32 ops, bool optimized, Tracer* tracer) {
    Round r;
    r.attempted = ops;
    const auto t_setup = Clock::now();
    platform::Soc soc;
    std::unique_ptr<core::Rac> rac;
    if (shape_.idct) {
      rac = std::make_unique<rac::IdctRac>(soc.kernel(), "idct");
    } else {
      rac = std::make_unique<rac::PassthroughRac>(
          soc.kernel(), "pass", shape_.words * 32 / shape_.rac_width,
          shape_.rac_width);
    }
    core::Ocp& ocp = soc.add_ocp(*rac);
    if (!optimized) {
      soc.bus().set_batching(false);
      ocp.controller().set_decode_cache(false);
      soc.kernel().set_gating(false);
    }
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = 0x4000'0000,
                             .in_base = 0x4001'0000,
                             .out_base = 0x4002'0000,
                             .in_words = shape_.words,
                             .out_words = shape_.words});
    const auto t_install = Clock::now();
    {
      ScopedSpan span(tracer, "drv.install");
      session.install(core::build_stream_program({.in_words = shape_.words,
                                                  .out_words = shape_.words,
                                                  .burst = shape_.burst}));
    }
    const double install_s = seconds_since(t_install);
    r.setup_s = seconds_since(t_setup);

    std::vector<u64> latency(ops, 0);  // cycles, start to acknowledged done
    std::vector<std::vector<u32>> outputs(ops);
    const StackCounters before = StackCounters::read(soc);
    const Cycle c0 = soc.kernel().now();
    const auto t0 = Clock::now();
    Slicer slicer(soc.kernel(), shape_.slice_ops);
    u32 done = 0;
    try {
      for (; done < ops; ++done) {
        ScopedSpan op(tracer, "op", done);
        {
          ScopedSpan s(tracer, "drv.put_input", done);
          session.put_input(inputs_[done]);
        }
        {
          ScopedSpan s(tracer, "drv.run_poll", done);
          latency[done] = session.run_poll();
        }
        {
          ScopedSpan s(tracer, "drv.get_output", done);
          outputs[done] = session.get_output();
        }
        slicer.tick();
      }
    } catch (const std::exception& e) {
      r.error = std::string("SimError: ") + e.what();
    }
    r.timed_s = seconds_since(t0);
    r.sim_cycles = soc.kernel().now() - c0;
    r.slices = slicer.take();
    const StackCounters after = StackCounters::read(soc);

    const auto t_check = Clock::now();
    Digest digest;
    for (u32 i = 0; i < done; ++i) {
      const std::vector<u32> want =
          shape_.idct ? svc::reference_output(svc::JobKind::kIdct, inputs_[i])
                      : inputs_[i];
      if (outputs[i] != want) {
        ++r.failed;
        if (r.error.empty()) {
          r.error = "op " + std::to_string(i) + ": output mismatch";
        }
      }
      digest.add(latency[i]);
      for (u32 w : outputs[i]) digest.add(w);
    }
    r.failed += ops - done;  // the op that threw and those never run
    r.check_s = seconds_since(t_check);

    r.sim.ops = done;
    r.sim.cycles = r.sim_cycles;
    svc::LatencyStats stats;
    for (u32 i = 0; i < done; ++i) stats.add(latency[i]);
    r.sim.p50 = stats.percentile(50);
    r.sim.p99 = stats.percentile(99);
    r.sim.jobs_per_mcycle =
        r.sim_cycles > 0 ? static_cast<double>(done) * 1e6 /
                               static_cast<double>(r.sim_cycles)
                         : 0.0;
    r.sim.digest = digest.h;

    auto& L = r.layers;
    add_stack_layers(L, before, after, done, r.sim_cycles, r.timed_s);
    // One OCP and no dispatcher: its busy share stands for the RAC's.
    L["rac.busy_frac"] = static_cast<double>(after.ctrl_busy() -
                                             before.ctrl_busy()) /
                         std::max<double>(static_cast<double>(r.sim_cycles), 1);
    L["drv.install_ms"] = install_s * 1e3;
    return r;
  }

  InvokeShape shape_;
  std::vector<std::vector<u32>> inputs_;
};

}  // namespace

std::unique_ptr<Workload> make_invoke_workload(const std::string& name,
                                               u64 seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  if (name == "invoke_idct") {
    return std::make_unique<InvokeWorkload>(
        InvokeShape{.idct = true,
                    .words = 64,
                    .burst = 64,
                    .rac_width = 32,
                    .ops = tiny ? 64u : 4096u,
                    .prefix_ops = tiny ? 8u : 64u,
                    .slice_ops = 256},
        seed);
  }
  if (name == "invoke_convert") {
    // 768 words = 512 chunks of 48 bits: three 256-beat bursts each way.
    return std::make_unique<InvokeWorkload>(
        InvokeShape{.idct = false,
                    .words = 768,
                    .burst = 256,
                    .rac_width = 48,
                    .ops = tiny ? 8u : 512u,
                    .prefix_ops = tiny ? 2u : 8u,
                    .slice_ops = 32},
        seed);
  }
  return nullptr;
}

}  // namespace perfbench
