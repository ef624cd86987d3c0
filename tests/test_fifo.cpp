// Unit and property tests for the FIFO substrate: BitQueue and the
// width-adapting FIFO of paper Fig. 2.
#include <gtest/gtest.h>

#include <deque>
#include <numeric>

#include "fifo/bit_queue.hpp"
#include "fifo/width_fifo.hpp"
#include "sim/kernel.hpp"
#include "snap/state.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

/// Per-bit reference model of a LSB-first bit FIFO: one deque entry per
/// bit, nothing shared with fifo::BitQueue, so the FIFO tests below check
/// the packed ring against an independent oracle.
class BitOracle {
 public:
  void push(u64 v, unsigned width) {
    for (unsigned i = 0; i < width; ++i) bits_.push_back((v >> i) & 1);
  }
  [[nodiscard]] u64 peek(unsigned width) const {
    u64 v = 0;
    for (unsigned i = 0; i < width; ++i) v |= u64{bits_.at(i)} << i;
    return v;
  }
  u64 pop(unsigned width) {
    const u64 v = peek(width);
    bits_.erase(bits_.begin(), bits_.begin() + width);
    return v;
  }
  [[nodiscard]] std::size_t size_bits() const { return bits_.size(); }
  [[nodiscard]] std::vector<u32> pack_words() const {
    std::vector<u32> words((bits_.size() + 31) / 32, 0);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      words[i / 32] |= u32{bits_[i]} << (i % 32);
    }
    return words;
  }

 private:
  std::deque<u8> bits_;
};

u64 random_u64(util::Rng& rng) {
  return (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
}

// -------------------------------------------------------------- BitQueue --

TEST(BitQueue, PushPopSameWidth) {
  fifo::BitQueue q(16);
  q.push(0xAB, 8);
  q.push(0xCD, 8);
  EXPECT_EQ(q.size_bits(), 16u);
  EXPECT_EQ(q.pop(8), 0xABu);
  EXPECT_EQ(q.pop(8), 0xCDu);
  EXPECT_TRUE(q.empty());
}

TEST(BitQueue, SerializeLsbFirst) {
  fifo::BitQueue q(48);
  // Push one 48-bit word, pop as 3 x 16: LSB chunk first.
  q.push(0xABCD'1234'5678ull, 48);
  EXPECT_EQ(q.pop(16), 0x5678u);
  EXPECT_EQ(q.pop(16), 0x1234u);
  EXPECT_EQ(q.pop(16), 0xABCDu);
}

TEST(BitQueue, DeserializeLsbFirst) {
  fifo::BitQueue q(48);
  q.push(0x5678, 16);
  q.push(0x1234, 16);
  q.push(0xABCD, 16);
  EXPECT_EQ(q.pop(48), 0xABCD'1234'5678ull);
}

TEST(BitQueue, PeekDoesNotConsume) {
  fifo::BitQueue q(2);
  q.push(0x3, 2);
  EXPECT_EQ(q.peek(2), 0x3u);
  EXPECT_EQ(q.size_bits(), 2u);
  EXPECT_EQ(q.pop(2), 0x3u);
}

TEST(BitQueue, UnderflowThrows) {
  fifo::BitQueue q(64);
  q.push(1, 4);
  EXPECT_THROW(q.pop(8), SimError);
  EXPECT_THROW((void)q.peek(5), SimError);
  EXPECT_THROW(q.drop(5), SimError);
  EXPECT_EQ(q.pop(4), 1u);
}

TEST(BitQueue, PushPastCapacityThrows) {
  fifo::BitQueue q(40);
  q.push(0xABCD, 32);
  EXPECT_THROW(q.push(0x1FF, 9), SimError);
  EXPECT_EQ(q.size_bits(), 32u);  // the failed push stored nothing
  q.push(0xFF, 8);
  EXPECT_EQ(q.size_bits(), 40u);
  EXPECT_EQ(q.pop(40), 0xFF'0000'ABCDull);
}

TEST(BitQueue, WidthLimits) {
  fifo::BitQueue q(128);
  EXPECT_THROW(q.push(0, 0), SimError);
  EXPECT_THROW(q.push(0, 65), SimError);
  q.push(0, 64);
  EXPECT_THROW((void)q.peek(0), SimError);
  EXPECT_THROW((void)q.peek(65), SimError);
  EXPECT_THROW(q.drop(0), SimError);
  EXPECT_THROW(q.drop(65), SimError);
  q.drop(64);
  q.push(~u64{0}, 64);
  EXPECT_EQ(q.pop(64), ~u64{0});
}

TEST(BitQueue, MixedWidthProperty) {
  // Any sequence of pushes popped bit-by-bit reproduces the bit stream.
  util::Rng rng(77);
  fifo::BitQueue q(200 * 64);
  std::vector<u8> expected_bits;
  for (int i = 0; i < 200; ++i) {
    const unsigned w = 1 + rng.below(64);
    const u64 v = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
    q.push(v, w);
    for (unsigned b = 0; b < w; ++b) {
      expected_bits.push_back(static_cast<u8>((v >> b) & 1));
    }
  }
  for (std::size_t i = 0; i < expected_bits.size(); ++i) {
    ASSERT_EQ(q.pop(1), expected_bits[i]) << "bit " << i;
  }
}

/// Seeded differential run of BitQueue against the per-bit oracle: mixed
/// widths 1..64, pops that leave the head at any bit offset, pushes that
/// fill the ring exactly and then wrap, rejected pushes past capacity, and
/// snapshot images packed and unpacked from wherever the head happens to be.
TEST(BitQueue, DifferentialAgainstPerBitOracle) {
  for (const std::size_t cap : {1u, 63u, 64u, 100u, 192u, 1000u, 4113u}) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    util::Rng rng(cap * 7919);
    fifo::BitQueue q(cap);
    BitOracle ref;
    int exactly_full = 0;
    int rejected = 0;
    int unaligned_packs = 0;
    std::size_t head = 0;  // ring bit of the oldest bit, tracked by hand
    for (int step = 0; step < 20'000; ++step) {
      const unsigned w = 1 + rng.below(64);
      const u32 op = rng.below(16);
      if (op < 8) {
        const u64 v = random_u64(rng);
        if (ref.size_bits() + w > cap) {
          ASSERT_THROW(q.push(v, w), SimError) << step;
          ++rejected;
          // Top up to exactly full so the next pushes wrap a full ring.
          const std::size_t room = cap - ref.size_bits();
          if (room > 0 && room <= 64) {
            q.push(v, static_cast<unsigned>(room));
            ref.push(v, static_cast<unsigned>(room));
          }
        } else {
          q.push(v, w);
          ref.push(v, w);
        }
        if (ref.size_bits() == cap) ++exactly_full;
      } else if (op < 14) {
        if (ref.size_bits() < w) {
          ASSERT_THROW((void)q.peek(w), SimError) << step;
          ASSERT_THROW(q.drop(w), SimError) << step;
          ASSERT_THROW(q.pop(w), SimError) << step;
        } else if (op % 2 == 0) {
          ASSERT_EQ(q.pop(w), ref.pop(w)) << step;
          head += w;
        } else {
          ASSERT_EQ(q.peek(w), ref.peek(w)) << step;
          q.drop(w);
          ref.pop(w);
          head += w;
        }
      } else {
        const std::vector<u32> image = q.pack_words();
        ASSERT_EQ(image, ref.pack_words()) << step;
        if (head % 64 != 0) ++unaligned_packs;
        fifo::BitQueue copy(cap);
        copy.unpack_words(image, q.size_bits());
        ASSERT_EQ(copy.pack_words(), image) << step;
        ASSERT_EQ(copy.size_bits(), ref.size_bits());
        if (op == 15) {  // continue the run from the unpacked image
          q.unpack_words(image, ref.size_bits());
          head = 0;
        }
      }
      ASSERT_EQ(q.size_bits(), ref.size_bits()) << step;
    }
    EXPECT_GT(exactly_full, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_GT(unaligned_packs, 0);
    while (ref.size_bits() > 0) {
      const unsigned w =
          static_cast<unsigned>(std::min<std::size_t>(64, ref.size_bits()));
      ASSERT_EQ(q.pop(w), ref.pop(w));
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(BitQueue, UnpackRejectsShortImage) {
  fifo::BitQueue q(128);
  EXPECT_THROW(q.unpack_words({1, 2}, 65), SimError);
  EXPECT_THROW(q.unpack_words({1, 2, 3, 4, 5}, 129), SimError);  // > capacity
  q.unpack_words({0xAAAA'AAAA, 0xFFFF'FFFD}, 35);  // bits past 35 ignored
  EXPECT_EQ(q.size_bits(), 35u);
  EXPECT_EQ(q.pop(35), 0x5'AAAA'AAAAull);
}

// ------------------------------------------------------------- WidthFifo --

TEST(WidthFifo, SameWidthRoundTrip) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 8 * 32});
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  f.write(0x11);
  EXPECT_TRUE(f.empty());  // registered: not visible until the edge
  k.tick();
  EXPECT_FALSE(f.empty());
  EXPECT_EQ(f.peek(), 0x11u);
  EXPECT_EQ(f.read(), 0x11u);
  k.tick();
  EXPECT_TRUE(f.empty());
}

TEST(WidthFifo, FullFlagIsRegistered) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 2 * 32});
  f.write(1);
  k.tick();
  f.write(2);
  k.tick();
  EXPECT_TRUE(f.full());
  // Simultaneous read while full: full() stays until the next edge.
  EXPECT_EQ(f.read(), 1u);
  EXPECT_TRUE(f.full());
  k.tick();
  EXPECT_FALSE(f.full());
}

TEST(WidthFifo, SimultaneousReadWrite) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 4 * 32});
  f.write(10);
  k.tick();
  // Same cycle: pop the head and push a new tail.
  EXPECT_EQ(f.read(), 10u);
  f.write(11);
  k.tick();
  EXPECT_EQ(f.level_bits(), 32u);
  EXPECT_EQ(f.read(), 11u);
}

TEST(WidthFifo, SerializeWideToNarrow) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "ser", {.wr_width = 48, .rd_width = 16,
                               .capacity_bits = 48 * 4});
  f.write(0xABCD'1234'5678ull);
  k.tick();
  EXPECT_EQ(f.read(), 0x5678u);
  k.tick();
  EXPECT_EQ(f.read(), 0x1234u);
  k.tick();
  EXPECT_EQ(f.read(), 0xABCDu);
  k.tick();
  EXPECT_TRUE(f.empty());
}

TEST(WidthFifo, DeserializeNarrowToWide) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "des", {.wr_width = 32, .rd_width = 48,
                               .capacity_bits = 96 * 4});
  f.write(0x2222'1111);
  k.tick();
  EXPECT_TRUE(f.empty());  // only 32 of 48 bits present
  f.write(0x4444'3333);
  k.tick();
  EXPECT_FALSE(f.empty());
  EXPECT_EQ(f.read(), 0x3333'2222'1111ull);
}

TEST(WidthFifo, UsageContractViolations) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 32});
  EXPECT_THROW(f.read(), SimError);   // read while empty
  f.write(1);
  EXPECT_THROW(f.write(2), SimError);  // two writes in one cycle
  k.tick();
  EXPECT_THROW(f.write(2), SimError);  // write while full
  EXPECT_EQ(f.read(), 1u);
  EXPECT_THROW(f.read(), SimError);    // two reads in one cycle
}

TEST(WidthFifo, FlushClearsEverything) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 4 * 32});
  f.write(1);
  k.tick();
  f.flush();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.level_bits(), 0u);
  f.write(5);
  k.tick();
  EXPECT_EQ(f.read(), 5u);
}

TEST(WidthFifo, ConfigValidation) {
  sim::Kernel k;
  EXPECT_THROW(fifo::WidthFifo(k, "bad", {.wr_width = 0, .rd_width = 32,
                                          .capacity_bits = 64}),
               ConfigError);
  EXPECT_THROW(fifo::WidthFifo(k, "bad", {.wr_width = 32, .rd_width = 72,
                                          .capacity_bits = 256}),
               ConfigError);
  EXPECT_THROW(fifo::WidthFifo(k, "bad", {.wr_width = 32, .rd_width = 48,
                                          .capacity_bits = 40}),
               ConfigError);
}

TEST(WidthFifo, StatsTracked) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 16, .rd_width = 16,
                             .capacity_bits = 16 * 8});
  for (int i = 0; i < 5; ++i) {
    f.write(static_cast<u64>(i));
    k.tick();
  }
  EXPECT_EQ(f.writes(), 5u);
  EXPECT_EQ(f.max_level_bits(), 80u);
  while (!f.empty()) {
    f.read();
    k.tick();
  }
  EXPECT_EQ(f.reads(), 5u);
}

/// Property sweep: for arbitrary width pairs, data pushed as wr-chunks and
/// popped as rd-chunks reassembles the same bit stream.
struct WidthCase {
  unsigned wr, rd;
};

class WidthPairs : public ::testing::TestWithParam<WidthCase> {};

TEST_P(WidthPairs, StreamIntegrity) {
  const auto [wr, rd] = GetParam();
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = wr, .rd_width = rd,
                             .capacity_bits = 64 * 64});
  util::Rng rng(wr * 131 + rd);

  // Push enough chunks that total bits divide evenly by rd width.
  const u64 lcm_bits = std::lcm<u64>(wr, rd);
  const u32 pushes = static_cast<u32>(lcm_bits / wr) * 5;
  BitOracle expected;
  for (u32 i = 0; i < pushes; ++i) {
    const u64 v = ((static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32()) &
                  (wr == 64 ? ~u64{0} : ((u64{1} << wr) - 1));
    f.write(v);
    expected.push(v, wr);
    k.tick();
  }
  const u32 pops = static_cast<u32>(static_cast<u64>(pushes) * wr / rd);
  for (u32 i = 0; i < pops; ++i) {
    ASSERT_FALSE(f.empty()) << "pop " << i;
    ASSERT_EQ(f.read(), expected.pop(rd)) << "pop " << i;
    k.tick();
  }
  EXPECT_TRUE(f.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, WidthPairs,
    ::testing::Values(WidthCase{32, 32}, WidthCase{32, 48}, WidthCase{48, 32},
                      WidthCase{32, 64}, WidthCase{64, 32}, WidthCase{8, 32},
                      WidthCase{32, 8}, WidthCase{24, 40}, WidthCase{1, 64},
                      WidthCase{64, 1}, WidthCase{16, 48}, WidthCase{48, 16}),
    [](const ::testing::TestParamInfo<WidthCase>& info) {
      return "wr" + std::to_string(info.param.wr) + "_rd" +
             std::to_string(info.param.rd);
    });

/// Randomized stress: a producer and consumer hammer the FIFO with random
/// interleavings, respecting full/empty; a per-bit oracle checks every
/// popped chunk and the level bookkeeping.
TEST(WidthFifo, RandomizedStressWithBackpressure) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 24, .rd_width = 40,
                             .capacity_bits = 480});  // lcm-unfriendly sizes
  util::Rng rng(2024);
  BitOracle shadow;
  u64 pushed_bits = 0;
  u64 popped_bits = 0;

  for (int cycle = 0; cycle < 20'000; ++cycle) {
    if (rng.chance(0.6) && !f.full()) {
      const u64 v = rng.next_u32() & 0xFF'FFFFu;
      f.write(v);
      shadow.push(v, 24);
      pushed_bits += 24;
    }
    if (rng.chance(0.5) && !f.empty()) {
      ASSERT_EQ(f.read(), shadow.peek(40)) << "cycle " << cycle;
      shadow.pop(40);
      popped_bits += 40;
    }
    k.tick();
    ASSERT_EQ(f.level_bits(), pushed_bits - popped_bits) << cycle;
    ASSERT_LE(f.level_bits(), 480u);
  }
  EXPECT_GT(pushed_bits, 100'000u);  // the stress actually stressed
}

// ---------------------------------------------------- WidthFifo snapshot --

/// The two words every snapshot test below writes into a 4-word FIFO.
const std::vector<u32> kTwoWords{0x1234'5678, 0x9ABC'DEF0};

/// The state section of a FIFO after those two writes, field by field in
/// save_state()'s layout, with the level fields chosen by the test.
std::vector<u8> two_word_section(u32 level, u32 max_level) {
  snap::StateWriter w;
  w.write_u64("stored_bits", 64);
  w.write_words32("storage", kTwoWords);
  w.write_u32("level", level);
  w.write_bool("wrote_this_cycle", false);
  w.write_bool("read_this_cycle", false);
  w.write_u64("pending_write", kTwoWords[1]);
  w.write_bool("has_pending_write", false);
  w.write_bool("pending_pop", false);
  w.write_u64("writes", 2);
  w.write_u64("reads", 0);
  w.write_u32("max_level", max_level);
  return w.take();
}

constexpr fifo::WidthFifoConfig kFourWords{
    .wr_width = 32, .rd_width = 32, .capacity_bits = 4 * 32};

TEST(WidthFifoSnapshot, HandWrittenSectionMatchesSaveState) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", kFourWords);
  for (const u32 word : kTwoWords) {
    f.write(word);
    k.tick();
  }
  snap::StateWriter w;
  f.save_state(w);
  EXPECT_EQ(w.bytes(), two_word_section(64, 64));

  fifo::WidthFifo g(k, "g", kFourWords);
  snap::StateReader r(w.take(), "g");
  g.restore_state(r);
  r.expect_end();
  EXPECT_EQ(g.level_bits(), 64u);
  EXPECT_EQ(g.read(), kTwoWords[0]);
}

TEST(WidthFifoSnapshot, RejectsLevelThatDiffersFromStoredBits) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", kFourWords);
  // Below the stored bits, above them, and past capacity, where
  // bulk_writable()'s capacity - level would wrap around.
  for (const u32 level : {32u, 96u, 5 * 32u}) {
    snap::StateReader r(two_word_section(level, level), "f");
    EXPECT_THROW(f.restore_state(r), snap::SnapshotError) << level;
  }
}

TEST(WidthFifoSnapshot, RejectsMaxLevelBelowLevel) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", kFourWords);
  snap::StateReader r(two_word_section(64, 32), "f");
  EXPECT_THROW(f.restore_state(r), snap::SnapshotError);
}

TEST(WidthFifoResources, SmallFifoUsesLuts) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "small", {.wr_width = 32, .rd_width = 32,
                                 .capacity_bits = 16 * 32});
  const auto t = f.resource_tree().total();
  EXPECT_EQ(t.bram36, 0u);
  EXPECT_GT(t.luts, 0u);
}

TEST(WidthFifoResources, LargeFifoInfersBram) {
  // "FIFO memory is inferred as BRAM" — the paper's observation for the
  // accelerator-sized FIFOs.
  sim::Kernel k;
  fifo::WidthFifo f(k, "big", {.wr_width = 32, .rd_width = 32,
                               .capacity_bits = 512 * 32});
  const auto t = f.resource_tree().total();
  EXPECT_GE(t.bram36, 1u);
}

}  // namespace
}  // namespace ouessant
