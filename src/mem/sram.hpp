// Memory models. The paper's platform is a Nexys4 board with 16 MB SRAM
// behind the AHB bus; Sram models it as a word-addressed memory with
// configurable wait states. Rom is the same with writes rejected.
//
// Storage is a table of fixed 4 KiB pages. A null page reads as zeros,
// and a page is allocated on the first write of a non-zero word, so a
// stack's memory, its snapshot and its restore all cost what the
// simulation touched, not the 16 MB the board has.
//
// Clock-gating audit: not a sim::Component — purely reactive bus slaves
// with no per-cycle behaviour of their own (wait states are charged by
// the interconnect), so there is nothing to gate.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bus/types.hpp"
#include "snap/state.hpp"

namespace ouessant::mem {

class Sram : public bus::BusSlave {
 public:
  /// Words per page (4 KiB).
  static constexpr u32 kPageShift = 10;
  static constexpr u32 kPageWords = 1u << kPageShift;

  /// @p base is the bus base address; accesses arrive with absolute
  /// addresses. @p read_wait / @p write_wait are per-beat wait states.
  Sram(std::string name, Addr base, u32 size_bytes, u32 read_wait = 0,
       u32 write_wait = 0);

  // bus::BusSlave
  bus::SlaveResponse read_word(Addr addr) override;
  u32 write_word(Addr addr, u32 data) override;
  /// Pure storage — accesses touch only the pages and the read/write
  /// counters, so the interconnect may run a whole burst's accesses
  /// eagerly (batched burst windows) without anything observing the
  /// difference. Rom inherits this: its write_word throws, and the
  /// batched path re-raises on the exact per-beat cycle.
  [[nodiscard]] bool batchable_slave() const override { return true; }
  [[nodiscard]] std::string slave_name() const override { return name_; }

  // Host-side (testbench) backdoor access — no simulated time.
  [[nodiscard]] u32 peek(Addr addr) const;
  void poke(Addr addr, u32 data);
  void load(Addr addr, const std::vector<u32>& words);
  [[nodiscard]] std::vector<u32> dump(Addr addr, u32 words) const;
  /// fill(0) frees every page.
  void fill(u32 value);

  [[nodiscard]] Addr base() const { return base_; }
  [[nodiscard]] u32 size_bytes() const { return words_ * 4; }
  /// Allocated pages: a host-independent measure of this memory's
  /// footprint (kPageWords * 4 bytes each).
  [[nodiscard]] std::size_t resident_pages() const;
  [[nodiscard]] u64 reads() const { return reads_; }
  [[nodiscard]] u64 writes() const { return writes_; }

  /// Snapshot hooks. Not a sim::Component, so Soc drives these directly
  /// (the "soc" section). Contents are run-length encoded — a mostly
  /// untouched 16 MB SRAM serializes in a few bytes, and its null pages
  /// cost the encoder O(1) each. restore_state() validates and decodes
  /// the whole saved state before it changes anything, so a rejected
  /// image leaves the memory and its counters as they were.
  void save_state(snap::StateWriter& w) const;
  void restore_state(snap::StateReader& r);

  /// restore_state() split in two, for a caller that has more state to
  /// read after the memory's: read_state() decodes and validates but
  /// changes nothing; adopt() installs the result and cannot fail.
  struct SavedState;
  [[nodiscard]] SavedState read_state(snap::StateReader& r) const;
  void adopt(SavedState&& s) noexcept;

 protected:
  using Page = std::unique_ptr<u32[]>;
  using PageTable = std::vector<Page>;
  class PageSink;

  [[nodiscard]] u32 index_for(Addr addr, const char* what) const;
  [[nodiscard]] u32 word(u32 index) const {
    const u32* p = pages_[index >> kPageShift].get();
    return p != nullptr ? p[index & (kPageWords - 1)] : 0;
  }
  /// Stores @p value at @p index of @p pages, allocating the page on
  /// first touch unless @p value is 0.
  static void store_word(PageTable& pages, u32 index, u32 value);

  std::string name_;
  Addr base_;
  u32 words_;
  PageTable pages_;
  u32 read_wait_;
  u32 write_wait_;
  u64 reads_ = 0;
  u64 writes_ = 0;
};

struct Sram::SavedState {
  u64 reads = 0;
  u64 writes = 0;
  PageTable pages;
};

class Rom : public Sram {
 public:
  Rom(std::string name, Addr base, std::vector<u32> contents,
      u32 read_wait = 0);

  u32 write_word(Addr addr, u32 data) override;
};

}  // namespace ouessant::mem
