// ChainSession: one configured accelerator pipeline of one or two
// stages, and the single shape the service dispatcher drives.
//
//  - One stage: a plain OCP running the ordinary batch program. It is a
//    store-and-forward chain with nothing to forward: start, one
//    interrupt, retire.
//  - Two stages: a producer ("head") OCP whose output FIFO feeds a
//    consumer ("tail") OCP's input FIFO through a fifo::ChainLink, or
//    the store-and-forward ablation that routes the intermediate blocks
//    through an SRAM bounce buffer instead (docs/chaining.md).
//
// The session composes one OcpSession per stage and owns the launch
// protocol of the two-stage modes:
//
//  - kLinked: install the chain head/tail microcode (head never drains
//    its output, tail never fetches its input — the link is the only
//    mover in between), arm the head's CHAIN control bit, and start the
//    TAIL first: its exec blocks on the empty input FIFO until the link
//    delivers, so starting order cannot lose data. One interrupt (the
//    tail's) retires the whole chain.
//  - kStoreForward: the measured baseline. Every stage runs the
//    ordinary batch program; the head writes every intermediate block to
//    the bounce buffer over the system bus and the tail reads it back —
//    same payloads, same RACs, twice the SRAM traffic and one interrupt
//    per stage.
//
// Every control access is a timed bus transaction through the stages'
// OcpDrivers, so the chained-vs-store-and-forward comparison includes
// the software cost of driving one completion versus two.
#pragma once

#include <vector>

#include "drv/session.hpp"
#include "fifo/chain_link.hpp"

namespace ouessant::drv {

/// Intermediate-block routing. kStoreForward is the one-flag ablation
/// (same spirit as dpr::IcapMode::kFree): flip it and nothing else to
/// measure what the p2p link buys.
enum class ChainMode : u8 {
  kLinked = 0,       ///< head -> ChainLink -> tail (no SRAM in between)
  kStoreForward = 1  ///< head -> SRAM bounce buffer -> tail
};

[[nodiscard]] const char* chain_mode_name(ChainMode mode);

/// SRAM carve-out for one two-stage chain. The bounce buffer is only
/// written in kStoreForward mode but is reserved in both so the two
/// modes run over an identical memory map.
struct ChainLayout {
  Addr head_prog_base = 0;  ///< head microcode image (head bank 0)
  Addr tail_prog_base = 0;  ///< tail microcode image (tail bank 0)
  Addr in_base = 0;         ///< chain input blocks (head bank 1)
  Addr bounce_base = 0;     ///< store-and-forward intermediate blocks
  Addr out_base = 0;        ///< chain output blocks (tail bank 2)
  u32 block_words = 0;      ///< words per block, both stages (<= one burst)
  u32 max_batch = 1;        ///< blocks the windows are sized for
};

class ChainSession {
 public:
  /// One stage: @p ocp alone over @p layout, in blocks of
  /// @p block_words. The batch bound is what both windows hold.
  ChainSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& ocp,
               SessionLayout layout, u32 block_words);

  /// Two stages. Binds @p link between @p head's output FIFO 0 and
  /// @p tail's input FIFO 0 and wires @p head's CHAIN control bit to the
  /// link's enable — after this, `driver().enable_chain(true)` on the
  /// head is what turns the conduit on. Each OCP must expose exactly one
  /// FIFO per direction (the BlockRac shape).
  ChainSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& head,
               core::Ocp& tail, fifo::ChainLink& link, ChainLayout layout,
               ChainMode mode = ChainMode::kLinked);

  // The head's CHAIN listener captures `this`.
  ChainSession(const ChainSession&) = delete;
  ChainSession& operator=(const ChainSession&) = delete;

  /// Install the batch-@p batch microcode on every stage. kLinked also
  /// arms the head's CHAIN bit on the first install (one timed CSR write
  /// for the session's lifetime).
  void install(u32 batch, bool timed_program = true);

  // Host-side staging (backdoor; mirrors OcpSession::put_input).
  void put_input(const std::vector<u32>& words);
  [[nodiscard]] std::vector<u32> get_output(u32 words) const;

  /// Blocking end-to-end run of the installed batch; returns elapsed
  /// cycles. kLinked sleeps on the tail's interrupt; otherwise the
  /// stages run back to back, one interrupt each.
  u64 run_irq(u64 timeout = kDefaultDriverTimeout);

  // -- staged execution (the Dispatcher's path) --------------------------
  /// Launch without waiting. kLinked starts tail then head and the next
  /// event is the tail's completion; otherwise the first stage starts
  /// and the next event is its completion (-> advance_to_tail when more
  /// stages follow).
  void start_async();

  /// Store-and-forward head-stage ISR tail: acknowledge the head's D and
  /// launch the tail stage over the bounce buffer.
  void advance_to_tail();

  /// After the caller acknowledged the last stage's completion: clear
  /// the head's latched D (kLinked runs the head with IE off, so its D
  /// sits until the chain retires) and return to idle.
  void retire_ack();

  /// True while a stage other than the last is in flight (the next
  /// interrupt belongs to the head, not the tail).
  [[nodiscard]] bool awaiting_tail() const {
    return in_flight_ && stage_ + 1 < stage_count();
  }

  /// Index of the stage whose completion comes next.
  [[nodiscard]] u32 active_stage() const { return stage_; }
  /// Cycle advance_to_tail started the active stage; 0 while the active
  /// stage is one that started with the batch.
  [[nodiscard]] Cycle stage_since() const { return stage_since_; }
  /// True when stage @p i raises a CPU-visible completion: the last
  /// stage always, earlier ones only in store-and-forward mode (a linked
  /// head runs IE-off and its D is acknowledged at retire time).
  [[nodiscard]] bool stage_interrupts(u32 i) const {
    return i + 1 == stage_count() || mode_ == ChainMode::kStoreForward;
  }

  /// Fault recovery: every stage through OcpSession::recover (ERR ack +
  /// RST pulse) plus a link flush for the word that may be in flight.
  /// The head's CHAIN bit survives (driver shadow).
  void recover();

  [[nodiscard]] u32 stage_count() const {
    return static_cast<u32>(stages_.size());
  }
  [[nodiscard]] OcpSession& stage(u32 i) { return stages_.at(i); }
  [[nodiscard]] OcpSession& active() { return stages_.at(stage_); }
  [[nodiscard]] OcpSession& head() { return stages_.front(); }
  [[nodiscard]] OcpSession& tail() { return stages_.back(); }
  [[nodiscard]] u32 block_words() const { return block_words_; }
  [[nodiscard]] u32 max_batch() const { return max_batch_; }

  void set_tracer(obs::EventTracer* tracer);

  // Host-stack snapshot hooks (the Dispatcher embeds these per worker):
  // every stage's driver state, then — two-stage sessions only, so a
  // one-stage image is exactly its driver's — the stage machine, whose
  // stage clock is written only while an advanced stage is in flight.
  // save_state is non-const only because it reaches the composed
  // sessions' drivers; it performs no accesses and mutates nothing.
  void save_state(snap::StateWriter& w);
  void restore_state(snap::StateReader& r);

 private:
  cpu::Gpp& gpp_;
  u32 block_words_;
  u32 max_batch_;
  ChainMode mode_;
  fifo::ChainLink* link_ = nullptr;  ///< two-stage sessions only
  std::vector<OcpSession> stages_;
  /// True while a stage started by advance_to_tail is in flight.
  [[nodiscard]] bool advanced() const {
    return in_flight_ && stage_ > 0 && mode_ == ChainMode::kStoreForward;
  }

  bool in_flight_ = false;
  u32 stage_ = 0;  ///< stage in flight (meaningful while in_flight_)
  Cycle stage_since_ = 0;  ///< see stage_since()
};

}  // namespace ouessant::drv
