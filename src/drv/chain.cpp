#include "drv/chain.hpp"

#include <algorithm>

#include "ouessant/codegen.hpp"

namespace ouessant::drv {

const char* chain_mode_name(ChainMode mode) {
  switch (mode) {
    case ChainMode::kLinked:
      return "linked";
    case ChainMode::kStoreForward:
      return "store_forward";
  }
  return "?";
}

namespace {

SessionLayout head_layout(const ChainLayout& cl) {
  const u32 words = cl.max_batch * cl.block_words;
  // The head's output bank points at the bounce buffer: unused while
  // linked (the chain head program has no mvfc), live in store-and-
  // forward mode — one layout serves both modes.
  return SessionLayout{.prog_base = cl.head_prog_base,
                       .in_base = cl.in_base,
                       .out_base = cl.bounce_base,
                       .in_words = words,
                       .out_words = words};
}

SessionLayout tail_layout(const ChainLayout& cl) {
  const u32 words = cl.max_batch * cl.block_words;
  return SessionLayout{.prog_base = cl.tail_prog_base,
                       .in_base = cl.bounce_base,
                       .out_base = cl.out_base,
                       .in_words = words,
                       .out_words = words};
}

}  // namespace

ChainSession::ChainSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& ocp,
                           SessionLayout layout, u32 block_words)
    : gpp_(gpp),
      block_words_(block_words),
      max_batch_(block_words == 0
                     ? 0
                     : std::min(layout.in_words, layout.out_words) /
                           block_words),
      // Nothing to forward: the one stage runs the ordinary batch
      // program, exactly like a store-and-forward stage.
      mode_(ChainMode::kStoreForward) {
  if (max_batch_ == 0) {
    throw ConfigError("ChainSession: " + ocp.name() +
                      " windows hold no whole block");
  }
  stages_.emplace_back(gpp, mem, ocp, layout);
}

ChainSession::ChainSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& head,
                           core::Ocp& tail, fifo::ChainLink& link,
                           ChainLayout layout, ChainMode mode)
    : gpp_(gpp),
      block_words_(layout.block_words),
      max_batch_(layout.max_batch),
      mode_(mode),
      link_(&link) {
  if (block_words_ == 0 || max_batch_ == 0) {
    throw ConfigError("ChainSession: zero-sized chain layout");
  }
  if (head.output_fifos().size() != 1 || tail.input_fifos().size() != 1) {
    throw ConfigError(
        "ChainSession: chain endpoints must expose exactly one FIFO per "
        "direction (head " +
        head.name() + " has " + std::to_string(head.output_fifos().size()) +
        " outputs, tail " + tail.name() + " has " +
        std::to_string(tail.input_fifos().size()) + " inputs)");
  }
  stages_.reserve(2);
  stages_.emplace_back(gpp, mem, head, head_layout(layout));
  stages_.emplace_back(gpp, mem, tail, tail_layout(layout));
  link.bind(*head.output_fifos().front(), *tail.input_fifos().front());
  // The CHAIN CSR bit is the hardware-visible arm switch: BusInterface
  // reports every transition and the link gates on it, so the conduit's
  // state is exactly what software last programmed — including across a
  // snapshot restore (the bit is re-derived from the restored CTRL).
  head.iface().set_chain_listener(
      [this](bool on) { link_->set_enabled(on); });
}

void ChainSession::install(u32 batch, bool timed_program) {
  if (batch == 0 || batch > max_batch_) {
    throw ConfigError("ChainSession: batch " + std::to_string(batch) +
                      " outside 1.." + std::to_string(max_batch_));
  }
  core::StreamJob per_block;
  per_block.in_words = block_words_;
  per_block.out_words = block_words_;
  per_block.burst = block_words_;
  per_block.use_loop = true;
  if (mode_ == ChainMode::kLinked) {
    head().install(core::build_chain_head_program(per_block, batch),
                   timed_program);
    tail().install(core::build_chain_tail_program(per_block, batch),
                   timed_program);
    if (!head().driver().chain_shadow()) head().driver().enable_chain(true);
  } else {
    const core::Program prog = core::build_batch_program(per_block, batch);
    for (OcpSession& s : stages_) s.install(prog, timed_program);
  }
}

void ChainSession::put_input(const std::vector<u32>& words) {
  if (words.size() > max_batch_ * block_words_) {
    throw ConfigError("ChainSession::put_input: size exceeds window");
  }
  head().memory().load(head().layout().in_base, words);
}

std::vector<u32> ChainSession::get_output(u32 words) const {
  auto& last = const_cast<OcpSession&>(stages_.back());
  return last.memory().dump(last.layout().out_base, words);
}

u64 ChainSession::run_irq(u64 timeout) {
  const Cycle t0 = gpp_.now();
  if (mode_ == ChainMode::kLinked) {
    // Tail first: its exec parks on the empty input FIFO, so no word the
    // head emits can ever find the consumer unarmed. The head runs with
    // IE off — its latched D is acknowledged after the chain retires.
    tail().driver().enable_irq(true);
    tail().driver().start();
    head().driver().start();
    tail().driver().wait_done_irq(timeout);
    if (!head().driver().done_bit_set()) {
      throw SimError("ChainSession: tail " + tail().ocp().name() +
                     " completed but head " + head().ocp().name() +
                     " has no D latched — the chain retired out of order");
    }
    head().driver().clear_done();
  } else {
    for (OcpSession& s : stages_) s.run_irq(timeout);
  }
  in_flight_ = false;
  return gpp_.now() - t0;
}

void ChainSession::start_async() {
  if (in_flight_) {
    throw SimError("ChainSession: start_async while a chain is in flight");
  }
  stage_since_ = 0;
  if (mode_ == ChainMode::kLinked) {
    tail().start_async();
    head().start_async();
    stage_ = stage_count() - 1;
  } else {
    head().start_async();
    stage_ = 0;
  }
  in_flight_ = true;
}

void ChainSession::advance_to_tail() {
  if (!awaiting_tail()) {
    throw SimError("ChainSession: advance_to_tail with no head stage open");
  }
  head().driver().clear_done();
  stage_since_ = gpp_.now();
  tail().start_async();
  stage_ = stage_count() - 1;
}

void ChainSession::retire_ack() {
  // Fault paths can retire a chain whose head never reached EOP — the
  // conditional keeps the ack idempotent there; the happy linked path
  // always finds (and clears) the latched D.
  if (mode_ == ChainMode::kLinked && head().driver().done_bit_set()) {
    head().driver().clear_done();
  }
  in_flight_ = false;
}

void ChainSession::recover() {
  for (OcpSession& s : stages_) s.recover();
  if (link_ != nullptr) link_->flush();
  in_flight_ = false;
}

void ChainSession::set_tracer(obs::EventTracer* tracer) {
  for (OcpSession& s : stages_) s.set_tracer(tracer);
}

void ChainSession::save_state(snap::StateWriter& w) {
  for (OcpSession& s : stages_) s.driver().save_state(w);
  if (stage_count() == 1) return;
  // 0 = idle, i + 1 = stage i in flight.
  w.write_u8("chain_stage", in_flight_ ? static_cast<u8>(stage_ + 1) : 0);
  if (advanced()) w.write_u64("stage_since", stage_since_);
}

void ChainSession::restore_state(snap::StateReader& r) {
  for (OcpSession& s : stages_) s.driver().restore_state(r);
  in_flight_ = false;
  stage_ = 0;
  stage_since_ = 0;
  if (stage_count() == 1) return;
  const u8 stage = r.read_u8("chain_stage");
  if (stage > stage_count()) {
    throw snap::SnapshotError("ChainSession: bad stage " +
                              std::to_string(stage));
  }
  in_flight_ = stage != 0;
  if (in_flight_) stage_ = stage - 1u;
  if (advanced()) stage_since_ = r.read_u64("stage_since");
}

}  // namespace ouessant::drv
