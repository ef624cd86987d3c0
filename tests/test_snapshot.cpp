// The snapshot subsystem, bottom to top:
//
//   1. State streams: every tagged field type round-trips; wrong name,
//      wrong tag, truncation and trailing garbage all throw
//      SnapshotError naming the field.
//   2. Container: serialize/deserialize round-trips; corrupted bytes,
//      short images, bad magic and a format-version skew are rejected
//      before any component sees a byte.
//   3. Per-component round-trips: SRAM contents + counters, RNG
//      streams, latency histograms restore to equal objects; a rejected
//      SRAM restore changes nothing.
//   3b. The paged SRAM: its encoder emits exactly the bytes of the
//      original greedy encoder run over the flat contents, and its
//      resident-page count (a memory gate that does not depend on the
//      host) is 0 on a fresh SoC and the template's on a warm fork.
//   4. The correctness bar of the refactor — snapshot at cycle C,
//      restore into a fresh stack, run to the end, and the clocks,
//      Stats::all(), outputs and latency histograms are bit-identical
//      to the run that never stopped: proven for E1 (IDCT sessions), a
//      serve_* service run, and a fault-armed run (injector RNG
//      streams and firing log resume exactly).
//   5. Warm-boot guard rails: restore into a differently-shaped stack
//      throws instead of corrupting, the fleet layer's fixed-seed shard
//      replay reproduces bit-for-bit, and the fleet's shard results and
//      folded aggregates are identical at every shard-thread count.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "drv/session.hpp"
#include "fault/plan.hpp"
#include "fleet/fleet.hpp"
#include "mem/sram.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "snap/snapshot.hpp"
#include "snap/state.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

using snap::Snapshot;
using snap::SnapshotError;
using snap::StateReader;
using snap::StateWriter;

// ---------------------------------------------------------------- streams --

TEST(StateStream, EveryFieldTypeRoundTrips) {
  StateWriter w;
  w.write_bool("flag", true);
  w.write_u8("byte", 0xAB);
  w.write_u32("word", 0xDEAD'BEEF);
  w.write_u64("dword", 0x0123'4567'89AB'CDEFull);
  w.write_double("real", -1.25);
  w.write_string("label", "ouessant");
  w.write_words32("w32", {0, 0, 0, 7, 7, 7, 1, 2, 3});
  w.write_words64("w64", {1ull << 40, 2, 3});
  w.write_bytes("blob", {0x00, 0xFF, 0x42});

  StateReader r(w.take(), "test");
  EXPECT_TRUE(r.read_bool("flag"));
  EXPECT_EQ(r.read_u8("byte"), 0xAB);
  EXPECT_EQ(r.read_u32("word"), 0xDEAD'BEEFu);
  EXPECT_EQ(r.read_u64("dword"), 0x0123'4567'89AB'CDEFull);
  EXPECT_EQ(r.read_double("real"), -1.25);
  EXPECT_EQ(r.read_string("label"), "ouessant");
  EXPECT_EQ(r.read_words32("w32"), (std::vector<u32>{0, 0, 0, 7, 7, 7, 1, 2, 3}));
  EXPECT_EQ(r.read_words64("w64"), (std::vector<u64>{1ull << 40, 2, 3}));
  EXPECT_EQ(r.read_bytes("blob"), (std::vector<u8>{0x00, 0xFF, 0x42}));
  r.expect_end();
}

TEST(StateStream, Words32RleHandlesRunsAndLiterals) {
  // Mostly-zero with literal islands — the SRAM shape the RLE exists for.
  std::vector<u32> v(4096, 0);
  v[100] = 1;
  v[101] = 2;
  for (std::size_t i = 2000; i < 2100; ++i) v[i] = 0x5555'5555;
  v.back() = 9;
  StateWriter w;
  w.write_words32("mem", v);
  EXPECT_LT(w.bytes().size(), v.size());  // actually compressed
  StateReader r(w.take(), "test");
  EXPECT_EQ(r.read_words32("mem"), v);
}

TEST(StateStream, Words32CountAboveVectorCapIsRejected) {
  // A 15-byte field claiming 2^31-1 words in one run block: the reader
  // must reject the count before it reserves or expands anything.
  const std::vector<u8> bomb = {7,    3,    'w',  '3',  '2',  0xff, 0xff, 0xff,
                                0x7f, 0xff, 0xff, 0xff, 0x7f, 0x2a, 0x00};
  // (the run's value is truncated too — the count check comes first)
  StateReader r(bomb, "test");
  EXPECT_THROW((void)r.read_words32("w32"), SnapshotError);

  StateWriter w;
  w.write_words32("w32", std::vector<u32>(snap::kMaxVectorWords, 5));
  StateReader at_cap(w.bytes(), "test");
  EXPECT_EQ(at_cap.read_words32("w32").size(), snap::kMaxVectorWords);

  std::vector<u8> over = w.take();
  over[6] = 1;  // count 0x00100100: past the cap
  StateReader past_cap(over, "test");
  EXPECT_THROW((void)past_cap.read_words32("w32"), SnapshotError);
}

TEST(StateStream, WrongNameWrongTagAndTruncationThrow) {
  StateWriter w;
  w.write_u32("a", 1);
  const std::vector<u8> bytes = w.take();

  StateReader wrong_name(bytes, "test");
  EXPECT_THROW((void)wrong_name.read_u32("b"), SnapshotError);

  StateReader wrong_tag(bytes, "test");
  EXPECT_THROW((void)wrong_tag.read_u64("a"), SnapshotError);

  std::vector<u8> cut(bytes.begin(), bytes.end() - 2);
  StateReader truncated(cut, "test");
  EXPECT_THROW((void)truncated.read_u32("a"), SnapshotError);

  StateReader leftover(bytes, "test");
  EXPECT_THROW(leftover.expect_end(), SnapshotError);
}

// -------------------------------------------------------------- container --

Snapshot two_section_snapshot() {
  Snapshot s;
  StateWriter a;
  a.write_u32("x", 42);
  s.add("alpha", 1, a.take());
  StateWriter b;
  b.write_string("y", "beta-state");
  s.add("beta", 3, b.take());
  return s;
}

/// Re-seal @p image with a freshly computed CRC trailer, so tests can
/// corrupt specific header bytes without also tripping the CRC check.
std::vector<u8> reseal(std::vector<u8> image) {
  image.resize(image.size() - 4);
  const u32 crc = snap::crc32(image);
  for (int i = 0; i < 4; ++i) {
    image.push_back(static_cast<u8>(crc >> (8 * i)));
  }
  return image;
}

TEST(Container, SerializeDeserializeRoundTrips) {
  const Snapshot s = two_section_snapshot();
  const Snapshot t = Snapshot::deserialize(s.serialize());
  ASSERT_EQ(t.sections().size(), 2u);
  EXPECT_TRUE(t.has("alpha"));
  EXPECT_EQ(t.section("beta").version, 3u);
  StateReader r(t.section("beta").bytes, "beta");
  EXPECT_EQ(r.read_string("y"), "beta-state");
}

TEST(Container, DuplicateAndMissingSectionsThrow) {
  Snapshot s = two_section_snapshot();
  EXPECT_THROW(s.add("alpha", 1, {}), SnapshotError);
  EXPECT_THROW((void)s.section("gamma"), SnapshotError);
}

TEST(Container, CorruptedByteIsRejected) {
  std::vector<u8> image = two_section_snapshot().serialize();
  image[image.size() / 2] ^= 0x01;
  EXPECT_THROW((void)Snapshot::deserialize(image), SnapshotError);
}

TEST(Container, ShortImageIsRejected) {
  const std::vector<u8> image = two_section_snapshot().serialize();
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, image.size() / 2,
                           image.size() - 1}) {
    const std::vector<u8> cut(image.begin(), image.begin() + keep);
    EXPECT_THROW((void)Snapshot::deserialize(cut), SnapshotError) << keep;
  }
}

TEST(Container, BadMagicIsRejected) {
  std::vector<u8> image = two_section_snapshot().serialize();
  image[0] = 'X';
  EXPECT_THROW((void)Snapshot::deserialize(reseal(image)), SnapshotError);
}

TEST(Container, FormatVersionSkewIsRejected) {
  std::vector<u8> image = two_section_snapshot().serialize();
  image[4] = static_cast<u8>(snap::kFormatVersion + 1);  // version u32, LE
  EXPECT_THROW((void)Snapshot::deserialize(reseal(image)), SnapshotError);
}

TEST(Container, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "snapshot_roundtrip.snap";
  two_section_snapshot().save_file(path);
  const Snapshot t = Snapshot::load_file(path);
  EXPECT_TRUE(t.has("alpha"));
  EXPECT_THROW((void)Snapshot::load_file(path + ".does-not-exist"), SimError);
}

// ----------------------------------------------------- component round-trips

TEST(ComponentState, SramRestoresContentsAndCounters) {
  mem::Sram a("sram", 0x4000'0000, 1u << 16, 1, 0);
  a.poke(0x4000'0000, 0x1111'2222);
  a.load(0x4000'1000, {1, 2, 3, 4, 5});
  (void)a.read_word(0x4000'1000);
  (void)a.write_word(0x4000'2000, 77);

  StateWriter w;
  a.save_state(w);
  mem::Sram b("sram", 0x4000'0000, 1u << 16, 1, 0);
  StateReader r(w.take(), "sram");
  b.restore_state(r);
  r.expect_end();

  EXPECT_EQ(b.dump(0x4000'0000, 1u << 14), a.dump(0x4000'0000, 1u << 14));
  EXPECT_EQ(b.reads(), a.reads());
  EXPECT_EQ(b.writes(), a.writes());
}

/// The SRAM's saved state as bytes: counters and contents in one value.
std::vector<u8> sram_state(const mem::Sram& m) {
  StateWriter w;
  m.save_state(w);
  return w.take();
}

TEST(ComponentState, RejectedSramRestoreChangesNothing) {
  mem::Sram target("sram", 0x4000'0000, 1u << 16, 1, 0);
  target.load(0x4000'0ff8, {1, 2, 3, 4, 5});  // straddles a page edge
  (void)target.read_word(0x4000'0000);
  (void)target.write_word(0x4000'8000, 9);
  const std::vector<u8> before = sram_state(target);
  const std::size_t pages_before = target.resident_pages();
  ASSERT_EQ(pages_before, 3u);

  mem::Sram source("sram", 0x4000'0000, 1u << 16, 1, 0);
  source.fill(0x5a5a'5a5a);
  (void)source.read_word(0x4000'0004);
  const std::vector<u8> good = sram_state(source);

  std::vector<std::vector<u8>> bad;
  bad.push_back(sram_state(mem::Sram("other", 0x4000'0000, 1u << 16)));
  bad.push_back(sram_state(mem::Sram("sram", 0x4000'0000, 1u << 17)));
  bad.push_back(std::vector<u8>(good.begin(), good.end() - 3));  // truncated
  {
    std::vector<u8> overrun = good;
    overrun[overrun.size() - 8] = 0xff;  // run length past the count
    bad.push_back(overrun);
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    StateReader r(bad[i], "sram");
    EXPECT_THROW(target.restore_state(r), SnapshotError) << i;
    EXPECT_EQ(sram_state(target), before) << i;
    EXPECT_EQ(target.resident_pages(), pages_before) << i;
    EXPECT_EQ(target.peek(0x4000'1000), 3u) << i;
    EXPECT_EQ(target.reads(), 1u) << i;
    EXPECT_EQ(target.writes(), 1u) << i;
  }

  StateReader r(good, "sram");
  target.restore_state(r);
  r.expect_end();
  EXPECT_EQ(sram_state(target), good);
  EXPECT_EQ(target.resident_pages(), 16u);
}

TEST(ComponentState, RngStreamResumesExactly) {
  util::Rng a(12345);
  for (int i = 0; i < 17; ++i) (void)a.next_u32();
  const auto state = a.state();
  util::Rng b(999);  // different seed, state overwritten by restore
  b.restore_state(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32()) << i;
  }
}

TEST(ComponentState, LatencyStatsRestoreToEqualHistograms) {
  svc::LatencyStats a;
  for (u64 s : {5ull, 1ull, 100ull, 42ull, 42ull, 7ull}) a.add(s);
  StateWriter w;
  a.save_state(w, "e2e");
  svc::LatencyStats b;
  StateReader r(w.take(), "test");
  b.restore_state(r, "e2e");
  EXPECT_EQ(b.samples(), a.samples());
  EXPECT_EQ(b.mean(), a.mean());
  EXPECT_EQ(b.percentile(95), a.percentile(95));
}

// --------------------------------------------------------------- paged SRAM

/// The greedy words32 encoder as it was over a flat std::vector, kept
/// here as the reference the paged encoder must match byte for byte.
/// (It leaves out splitting blocks at 2^31-1 words: no field here is
/// that long.)
std::vector<u8> reference_words32(const std::string& name,
                                  const std::vector<u32>& v) {
  std::vector<u8> out = {7, static_cast<u8>(name.size())};
  out.insert(out.end(), name.begin(), name.end());
  auto put = [&](u32 x) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(x >> (8 * i)));
  };
  put(static_cast<u32>(v.size()));
  std::size_t i = 0;
  std::size_t lit_begin = 0;
  auto flush_literal = [&](std::size_t end) {
    if (end > lit_begin) {
      put(0x8000'0000u | static_cast<u32>(end - lit_begin));
      for (std::size_t k = lit_begin; k < end; ++k) put(v[k]);
    }
  };
  while (i < v.size()) {
    std::size_t run = 1;
    while (i + run < v.size() && v[i + run] == v[i]) ++run;
    if (run >= 4) {
      flush_literal(i);
      put(static_cast<u32>(run));
      put(v[i]);
      i += run;
      lit_begin = i;
    } else {
      i += run;
    }
  }
  flush_literal(v.size());
  return out;
}

/// @p m's saved state with its contents encoded by the reference.
std::vector<u8> reference_sram_state(const mem::Sram& m) {
  StateWriter w;
  w.write_string("name", m.slave_name());
  w.write_u64("reads", m.reads());
  w.write_u64("writes", m.writes());
  std::vector<u8> out = w.take();
  const std::vector<u8> data =
      reference_words32("data", m.dump(m.base(), m.size_bytes() / 4));
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

TEST(PagedSram, EncoderMatchesTheFlatGreedyEncoder) {
  constexpr Addr kBase = 0x4000'0000;
  constexpr u32 kPage = mem::Sram::kPageWords * 4;  // bytes
  // 6.5 pages, so the last page is partial.
  const u32 bytes = 6 * kPage + kPage / 2;
  std::vector<std::pair<std::string, std::function<void(mem::Sram&)>>> cases;
  cases.emplace_back("untouched", [](mem::Sram&) {});
  cases.emplace_back("run straddles page edges", [&](mem::Sram& m) {
    for (Addr a = kPage - 12; a < 3 * kPage + 8; a += 4) m.poke(kBase + a, 7);
  });
  cases.emplace_back("null pages between equal runs", [&](mem::Sram& m) {
    for (Addr a = 0; a < kPage; a += 4) m.poke(kBase + a, 0xabcd);
    for (Addr a = 4 * kPage; a < 5 * kPage; a += 4) m.poke(kBase + a, 0xabcd);
  });
  cases.emplace_back("zero run across a null page", [&](mem::Sram& m) {
    m.poke(kBase + kPage - 4, 1);
    m.poke(kBase + 3 * kPage, 1);
  });
  cases.emplace_back("zeros inside literals", [&](mem::Sram& m) {
    m.load(kBase + kPage - 8, {1, 0, 2, 0, 0, 3, 0, 0, 0, 4, 5});
  });
  cases.emplace_back("non-zero last word", [&](mem::Sram& m) {
    m.poke(kBase + bytes - 4, 0xffff'ffff);
  });
  cases.emplace_back("three equal words at the end", [&](mem::Sram& m) {
    m.load(kBase + bytes - 12, {6, 6, 6});
  });
  cases.emplace_back("a resident page written back to zero", [&](mem::Sram& m) {
    m.poke(kBase + 2 * kPage + 40, 5);
    m.poke(kBase + 2 * kPage + 40, 0);
  });
  cases.emplace_back("fill(nonzero)", [](mem::Sram& m) { m.fill(0x1234); });
  cases.emplace_back("fill(nonzero) then fill(0)", [](mem::Sram& m) {
    m.fill(0x1234);
    m.fill(0);
  });
  cases.emplace_back("seeded islands", [&](mem::Sram& m) {
    util::Rng rng(77);
    for (int k = 0; k < 300; ++k) {
      const Addr a = (rng.next_u32() % (bytes / 4)) * 4;
      m.poke(kBase + a, rng.next_u32() % 3);  // 0s, 1s and 2s: runs and literals
    }
  });

  for (const auto& [label, setup] : cases) {
    SCOPED_TRACE(label);
    mem::Sram m("sram", kBase, bytes, 1, 0);
    setup(m);
    (void)m.read_word(kBase);
    const std::vector<u8> want = reference_sram_state(m);
    EXPECT_EQ(sram_state(m), want);
    // The vector form is the same core: it matches the reference too.
    StateWriter w;
    w.write_words32("data", m.dump(kBase, bytes / 4));
    EXPECT_EQ(w.bytes(), reference_words32("data", m.dump(kBase, bytes / 4)));
    // And the image decodes back to the same memory.
    mem::Sram back("sram", kBase, bytes, 1, 0);
    StateReader r(sram_state(m), "sram");
    back.restore_state(r);
    r.expect_end();
    EXPECT_EQ(back.dump(kBase, bytes / 4), m.dump(kBase, bytes / 4));
    EXPECT_LE(back.resident_pages(), m.resident_pages());
  }
}

TEST(PagedSram, PagesAreAllocatedOnlyByNonZeroWrites) {
  mem::Sram m("sram", 0x4000'0000, 1u << 20);
  EXPECT_EQ(m.resident_pages(), 0u);
  EXPECT_EQ(m.read_word(0x4000'4000).data, 0u);
  EXPECT_EQ(m.peek(0x400f'fffc), 0u);
  (void)m.write_word(0x4000'8000, 0);
  m.poke(0x4000'9000, 0);
  m.load(0x4000'a000, {0, 0, 0});
  EXPECT_EQ(m.resident_pages(), 0u);
  (void)m.write_word(0x4000'8004, 3);
  m.poke(0x4000'8ffc, 4);  // same page
  EXPECT_EQ(m.resident_pages(), 1u);
  m.fill(2);
  EXPECT_EQ(m.resident_pages(), (1u << 20) / (mem::Sram::kPageWords * 4));
  m.fill(0);
  EXPECT_EQ(m.resident_pages(), 0u);
  EXPECT_EQ(m.peek(0x4000'8004), 0u);

  const mem::Rom rom("rom", 0, {0, 0, 5, 0});
  EXPECT_EQ(rom.resident_pages(), 1u);
  EXPECT_EQ(rom.peek(8), 5u);
  EXPECT_EQ(mem::Rom("zeros", 0, {0, 0}).resident_pages(), 0u);
}

TEST(PagedSram, FreshSocHoldsNoPagesAndAWarmForkHoldsTheTemplates) {
  platform::Soc fresh;
  EXPECT_EQ(fresh.sram().resident_pages(), 0u);

  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2}};
  svc::WorkloadConfig warmup;
  warmup.jobs = 24;
  warmup.mean_gap = 300.0;
  warmup.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft};
  svc::OffloadService tmpl(cfg);
  tmpl.run(warmup);
  const std::size_t pages = tmpl.soc().sram().resident_pages();
  EXPECT_GT(pages, 0u);
  // Far below the 4096 pages of the board's 16 MB.
  EXPECT_LT(pages, 64u);

  svc::OffloadService shard(cfg);
  shard.restore(tmpl.snapshot());
  EXPECT_EQ(shard.soc().sram().resident_pages(), pages);
}

// ------------------------------------------------- E1 mid-run bit-identity --

/// The E1 stack of tests/test_determinism.cpp: SoC + IDCT OCP + session.
struct E1Stack {
  platform::Soc soc;
  rac::IdctRac idct;
  core::Ocp& ocp;
  drv::OcpSession session;

  E1Stack()
      : idct(soc.kernel(), "idct"),
        ocp(soc.add_ocp(idct)),
        session(soc.cpu(), soc.sram(), ocp,
                {.prog_base = 0x4000'0000,
                 .in_base = 0x4001'0000,
                 .out_base = 0x4002'0000,
                 .in_words = 64,
                 .out_words = 64}) {}

  void install() {
    session.install(core::build_stream_program(
        {.in_words = 64, .out_words = 64, .burst = 64}));
  }

  /// Invocations [@p first, @p last): alternating poll/IRQ completion
  /// with an idle gap, same recipe as run_e1_idct.
  void run_frames(int first, int last, util::Rng& rng,
                  std::vector<u32>* output) {
    for (int i = first; i < last; ++i) {
      std::vector<u32> in(64);
      for (auto& word : in) {
        word = static_cast<u32>(rng.range(-1024, 1023));
      }
      session.put_input(in);
      if (i % 2 == 0) {
        session.run_poll();
      } else {
        session.run_irq();
      }
      const auto out = session.get_output();
      output->insert(output->end(), out.begin(), out.end());
      soc.cpu().spend(777);
    }
  }
};

TEST(MidRun, E1RestoredRunIsBitIdentical) {
  // Straight run: 4 invocations; snapshot taken (passively) after 2.
  E1Stack a;
  a.install();
  util::Rng rng_a(21);
  std::vector<u32> out_a;
  a.run_frames(0, 2, rng_a, &out_a);

  Snapshot image = a.soc.snapshot();
  {
    // The session's driver shadow and the workload RNG live outside the
    // SoC walk — carry them as extra sections, as a host harness would.
    StateWriter w;
    a.session.driver().save_state(w);
    image.add("test_drv", 1, w.take());
    StateWriter w2;
    const auto st = rng_a.state();
    w2.write_words32("rng", {st[0], st[1], st[2], st[3]});
    image.add("test_rng", 1, w2.take());
  }
  // Serialize/deserialize in the middle: what continues is the on-disk
  // image, not the live object.
  const Snapshot reloaded = Snapshot::deserialize(image.serialize());

  a.run_frames(2, 4, rng_a, &out_a);
  const Cycle end_a = a.soc.kernel().now();
  const std::map<std::string, u64> stats_a = a.soc.kernel().stats().all();

  // Restored run: fresh identical stack, restore, run the back half.
  E1Stack b;
  b.soc.restore(reloaded);
  {
    StateReader r(reloaded.section("test_drv").bytes, "test_drv");
    b.session.driver().restore_state(r);
    r.expect_end();
    StateReader r2(reloaded.section("test_rng").bytes, "test_rng");
    const std::vector<u32> st = r2.read_words32("rng");
    ASSERT_EQ(st.size(), 4u);
    r2.expect_end();
    util::Rng rng_b(0);
    rng_b.restore_state({st[0], st[1], st[2], st[3]});
    std::vector<u32> out_b;
    b.run_frames(2, 4, rng_b, &out_b);
    // Bit-identity, speed counters included: both runs share one
    // configuration, and the counters themselves are snapshot-carried.
    EXPECT_EQ(b.soc.kernel().now(), end_a);
    EXPECT_EQ(b.soc.kernel().stats().all(), stats_a);
    EXPECT_EQ(out_b,
              std::vector<u32>(out_a.begin() + out_a.size() / 2, out_a.end()));
  }
}

TEST(MidRun, SocFingerprintMismatchIsRejectedBeforeMutation) {
  platform::Soc a;
  a.cpu().spend(100);
  const Snapshot snap = a.snapshot();

  platform::Soc smaller({.sram_bytes = 8u << 20});
  EXPECT_THROW(smaller.restore(snap), SnapshotError);

  // An extra OCP changes the component walk — also a fingerprint reject.
  platform::Soc with_ocp;
  rac::IdctRac idct(with_ocp.kernel(), "idct");
  (void)with_ocp.add_ocp(idct);
  EXPECT_THROW(with_ocp.restore(snap), SnapshotError);
  // The reject must come before any mutation: the target still runs.
  with_ocp.cpu().spend(10);
  EXPECT_EQ(with_ocp.kernel().now(), 10u);
}

// ------------------------------------------- service mid-run bit-identity --

svc::ServiceConfig serve_config(bool faulty) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2}};
  cfg.queue_depth = 64;
  if (faulty) {
    cfg.faults.add({.kind = fault::FaultKind::kBusError, .prob = 0.002})
        .add({.kind = fault::FaultKind::kIrqDrop, .prob = 0.05});
    cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                                 .backoff_base = 2048,
                                 .watchdog_cycles = 16'384};
  }
  return cfg;
}

svc::WorkloadConfig serve_workload() {
  svc::WorkloadConfig wl;
  wl.jobs = 60;
  wl.mean_gap = 250.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft};
  wl.high_fraction = 0.25;
  wl.seed = svc::kDefaultServiceSeed;
  return wl;
}

void expect_reports_identical(const svc::ServiceReport& a,
                              const svc::ServiceReport& b) {
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.wait.samples(), b.wait.samples());
  EXPECT_EQ(a.service.samples(), b.service.samples());
  EXPECT_EQ(a.e2e.samples(), b.e2e.samples());
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
}

/// Shared skeleton for the plain and fault-armed cases: begin a run,
/// step it partway, snapshot, let the original run to the end, then
/// restore the image into a fresh stack and finish there. Everything
/// observable must be bit-identical.
void check_serve_midrun(bool faulty) {
  svc::OffloadService a(serve_config(faulty));
  a.begin(serve_workload());
  for (int i = 0; i < 5 && !a.step(); ++i) {
  }
  ASSERT_FALSE(a.finished()) << "workload too small: nothing left to resume";
  const std::vector<u8> image = a.snapshot().serialize();
  while (!a.step()) {
  }
  const svc::ServiceReport rep_a = a.finish();
  const Cycle end_a = a.soc().kernel().now();
  const std::map<std::string, u64> stats_a = a.soc().kernel().stats().all();

  svc::OffloadService b(serve_config(faulty));
  b.restore(Snapshot::deserialize(image));
  while (!b.step()) {
  }
  const svc::ServiceReport rep_b = b.finish();

  expect_reports_identical(rep_a, rep_b);
  EXPECT_EQ(b.soc().kernel().now(), end_a);
  EXPECT_EQ(b.soc().kernel().stats().all(), stats_a);

  if (faulty) {
    // The injector's xoshiro streams and firing log resumed exactly:
    // the full logs agree event for event.
    ASSERT_NE(a.injector(), nullptr);
    ASSERT_NE(b.injector(), nullptr);
    const auto& log_a = a.injector()->log();
    const auto& log_b = b.injector()->log();
    ASSERT_EQ(log_a.size(), log_b.size());
    for (std::size_t i = 0; i < log_a.size(); ++i) {
      EXPECT_EQ(log_a[i].cycle, log_b[i].cycle) << i;
      EXPECT_EQ(log_a[i].kind, log_b[i].kind) << i;
      EXPECT_EQ(log_a[i].ocp, log_b[i].ocp) << i;
      EXPECT_EQ(log_a[i].spec_index, log_b[i].spec_index) << i;
    }
  }
}

TEST(MidRun, ServeRestoredRunIsBitIdentical) { check_serve_midrun(false); }

TEST(MidRun, FaultArmedRestoredRunIsBitIdentical) { check_serve_midrun(true); }

TEST(MidRun, MidSwapRestoredFarmRunIsBitIdentical) {
  // Snapshot taken while a bitstream is *in flight* on the ICAP: the
  // restored stack must resume the partial stream (words_done, the
  // bus-side burst state, the gated worker, the slot's swap target) and
  // finish bit-identically to the run that never stopped.
  const auto farm_config = [] {
    svc::ServiceConfig cfg;
    cfg.ocps.clear();
    cfg.queue_depth = 64;
    cfg.slots.count = 1;
    cfg.slots.candidates = {svc::JobKind::kIdct, svc::JobKind::kDft};
    cfg.slots.initial = {svc::JobKind::kIdct};
    cfg.slots.policy = svc::SwapPolicy::kGreedyQueueDepth;
    return cfg;
  };
  const auto farm_workload = [] {
    svc::WorkloadConfig wl;
    wl.jobs = 24;
    wl.mean_gap = 400.0;
    wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft};
    wl.seed = svc::kDefaultServiceSeed;
    return wl;
  };

  svc::OffloadService a(farm_config());
  a.begin(farm_workload());
  while (!a.finished() && !a.slot_manager()->swap_in_flight()) {
    (void)a.step();
  }
  ASSERT_TRUE(a.slot_manager()->swap_in_flight())
      << "workload never triggered a swap — nothing mid-flight to test";
  ASSERT_TRUE(a.icap()->busy());
  const std::vector<u8> image = a.snapshot().serialize();
  while (!a.step()) {
  }
  const svc::ServiceReport rep_a = a.finish();
  const Cycle end_a = a.soc().kernel().now();
  const std::map<std::string, u64> stats_a = a.soc().kernel().stats().all();

  svc::OffloadService b(farm_config());
  b.restore(Snapshot::deserialize(image));
  ASSERT_TRUE(b.slot_manager()->swap_in_flight());
  while (!b.step()) {
  }
  const svc::ServiceReport rep_b = b.finish();

  expect_reports_identical(rep_a, rep_b);
  EXPECT_EQ(rep_a.swaps_completed, rep_b.swaps_completed);
  EXPECT_EQ(rep_a.preemptions, rep_b.preemptions);
  EXPECT_GE(rep_a.swaps_completed, 1u);
  EXPECT_EQ(b.soc().kernel().now(), end_a);
  EXPECT_EQ(b.soc().kernel().stats().all(), stats_a);
}

TEST(MidRun, AdvancedChainStageKeepsItsDeadline) {
  // Store-and-forward chain whose every head IRQ is lost (IRQ source 1
  // is the head): the watchdog relays each head stage to the tail, and
  // the tail's deadline counts from that advance. Snapshot while such a
  // tail stage is in flight — the restored stack must keep the tail's
  // own deadline, not fall back to the batch start and poll early.
  const auto chain_config = [] {
    svc::ServiceConfig cfg;
    cfg.ocps.clear();
    cfg.chains = {svc::ChainSpec{.mode = drv::ChainMode::kStoreForward}};
    cfg.faults.add(
        {.kind = fault::FaultKind::kIrqDrop, .ocp = 1, .prob = 1.0});
    cfg.retry = svc::RetryPolicy{.max_attempts = 2,
                                 .backoff_base = 2048,
                                 .watchdog_cycles = 16'384};
    return cfg;
  };
  svc::WorkloadConfig wl;
  wl.jobs = 8;
  wl.mean_gap = 2000.0;
  wl.kinds = {svc::JobKind::kJpegChain};
  wl.seed = svc::kDefaultServiceSeed;

  svc::OffloadService a(chain_config());
  a.begin(wl);
  while (!a.finished() && a.dispatcher().irq_recoveries() == 0) {
    (void)a.step();
  }
  ASSERT_EQ(a.dispatcher().irq_recoveries(), 1u);
  ASSERT_TRUE(a.dispatcher().worker_busy(0)) << "tail stage not in flight";
  const std::vector<u8> image = a.snapshot().serialize();
  while (!a.step()) {
  }
  const svc::ServiceReport rep_a = a.finish();
  const Cycle end_a = a.soc().kernel().now();

  svc::OffloadService b(chain_config());
  b.restore(Snapshot::deserialize(image));
  while (!b.step()) {
  }
  const svc::ServiceReport rep_b = b.finish();

  expect_reports_identical(rep_a, rep_b);
  EXPECT_EQ(rep_a.completed, 8u);
  EXPECT_EQ(rep_a.irq_recoveries, rep_b.irq_recoveries);
  EXPECT_EQ(b.soc().kernel().now(), end_a);
}

TEST(MidRun, RestoreIntoDifferentlyShapedServiceThrows) {
  svc::OffloadService a(serve_config(false));
  a.begin(serve_workload());
  (void)a.step();
  const Snapshot image = a.snapshot();

  svc::ServiceConfig other;
  other.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2}};
  svc::OffloadService b(std::move(other));
  EXPECT_THROW(b.restore(image), SnapshotError);

  // Injector presence is part of the shape too.
  svc::OffloadService c(serve_config(true));
  EXPECT_THROW(c.restore(image), SnapshotError);
}

TEST(MidRun, FlightRingSpansAServiceRestore) {
  constexpr std::size_t kRing = 64;
  svc::OffloadService a(serve_config(false));
  obs::EventTracer ring_a(a.soc().kernel(), kRing);
  a.attach_tracer(ring_a);
  a.begin(serve_workload());
  for (int i = 0; i < 5 && !a.step(); ++i) {
  }
  ASSERT_FALSE(a.finished()) << "workload too small: nothing left to resume";
  ASSERT_GT(ring_a.dropped(), 0u) << "ring never wrapped before the save";
  const Snapshot image = a.snapshot();

  // A fresh stack with a ring of the same capacity resumes it exactly
  // and keeps recording.
  svc::OffloadService b(serve_config(false));
  obs::EventTracer ring_b(b.soc().kernel(), kRing);
  b.attach_tracer(ring_b);
  b.restore(image);
  EXPECT_EQ(ring_b.to_json(), ring_a.to_json());
  EXPECT_EQ(ring_b.dropped(), ring_a.dropped());
  while (!b.step()) {
  }
  EXPECT_GT(ring_b.dropped(), ring_a.dropped());

  // The ring is part of the image's shape: no tracer, or a full trace,
  // cannot take it.
  svc::OffloadService bare(serve_config(false));
  EXPECT_THROW(bare.restore(image), SnapshotError);
  svc::OffloadService full(serve_config(false));
  obs::EventTracer keep_all(full.soc().kernel());
  full.attach_tracer(keep_all);
  EXPECT_THROW(full.restore(image), SnapshotError);
}

// -------------------------------------------------------------- fleet layer

TEST(Fleet, WarmBootedShardsServeAndReproduce) {
  fleet::FleetConfig cfg;
  cfg.shards = 3;
  cfg.service.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct,
                                   .max_batch = 2}};
  cfg.service.queue_depth = 64;
  cfg.warmup.jobs = 8;
  cfg.warmup.mean_gap = 300.0;
  cfg.shard_load.jobs = 24;
  cfg.shard_load.mean_gap = 300.0;

  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  EXPECT_EQ(rep.shards, 3u);
  EXPECT_EQ(rep.total_jobs, 3u * 24u);
  EXPECT_EQ(rep.total_completed + rep.total_rejected + rep.total_failed,
            rep.total_jobs);
  EXPECT_GT(rep.total_completed, 0u);
  EXPECT_EQ(rep.e2e_sketch.count(), rep.total_completed);
  // Raw samples never accumulate: everything streams into the sketch.
  EXPECT_EQ(rep.peak_retained_samples, 0u);
  EXPECT_GT(rep.snapshot_bytes, 0u);
  EXPECT_TRUE(rep.reproducible);  // fixed-seed shard replay is bit-exact
  ASSERT_EQ(rep.shard_results.size(), 3u);
  // Distinct seeds: shard runs are not clones of each other.
  EXPECT_NE(rep.shard_results[0].digest, rep.shard_results[1].digest);
}

TEST(Fleet, RejectsEmptyFleet) {
  fleet::FleetConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW((void)fleet::run_fleet(cfg), ConfigError);
}

/// An 8-shard fleet with three batching workers. Armed, it takes the
/// fleet_slo shape: bus ERROR beats plus a hung RAC on worker 0, and
/// every observability arm live, so each shard quarantines a worker,
/// trips its flight recorder and burns SLO budget.
fleet::FleetConfig parallel_fleet(bool armed) {
  fleet::FleetConfig cfg;
  cfg.shards = 8;
  cfg.base_seed = 0xF1EE'3A11ull;
  cfg.service.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2}};
  cfg.service.queue_depth = 64;
  cfg.warmup.jobs = 60;
  cfg.warmup.mean_gap = 200.0;
  cfg.warmup.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft,
                      svc::JobKind::kFir};
  cfg.shard_load = cfg.warmup;
  cfg.shard_load.jobs = 48;
  cfg.shard_load.high_fraction = 0.25;
  cfg.obs.keep_exact_histogram = true;
  if (!armed) return cfg;

  // The hang must first fire inside the shards, not the template.
  cfg.warmup.kinds = {svc::JobKind::kDft, svc::JobKind::kFir};
  cfg.service.faults.add({.kind = fault::FaultKind::kBusError, .prob = 1e-4})
      .add({.kind = fault::FaultKind::kRacHang, .ocp = 0, .prob = 1.0});
  cfg.service.retry = svc::RetryPolicy{.max_attempts = 4,
                                       .backoff_base = 2048,
                                       .backoff_mult = 2,
                                       .quarantine_after = 2,
                                       .watchdog_cycles = 16'384};
  cfg.obs.slo = true;
  cfg.obs.slo_config.classes = {
      obs::SloObjective{
          .name = "high", .latency_cycles = 20'000, .target = 0.99},
      obs::SloObjective{
          .name = "normal", .latency_cycles = 60'000, .target = 0.95}};
  cfg.obs.slo_config.long_window = 40'000;
  cfg.obs.slo_config.short_window = 5'000;
  cfg.obs.flight = true;
  cfg.obs.flight_capacity = 512;
  cfg.obs.flight_dump_stem = ::testing::TempDir() + "fleet_parallel";
  return cfg;
}

TEST(Fleet, ParallelShardsMatchSerial) {
  for (const bool armed : {false, true}) {
    fleet::FleetConfig cfg = parallel_fleet(armed);
    cfg.jobs = 1;
    const fleet::FleetReport serial = fleet::run_fleet(cfg);
    ASSERT_EQ(serial.shard_results.size(), 8u);
    EXPECT_TRUE(serial.reproducible);
    if (armed) {
      EXPECT_EQ(serial.flight_triggers, 8u);
      EXPECT_EQ(serial.flight_dumps.size(), 8u);
      EXPECT_GT(serial.total_failed, 0u);
    }

    for (const unsigned jobs : {3u, 8u}) {
      SCOPED_TRACE("armed " + std::to_string(armed) + " jobs " +
                   std::to_string(jobs));
      cfg.jobs = jobs;
      const fleet::FleetReport par = fleet::run_fleet(cfg);
      ASSERT_EQ(par.shard_results.size(), serial.shard_results.size());
      for (std::size_t i = 0; i < serial.shard_results.size(); ++i) {
        const fleet::ShardResult& a = serial.shard_results[i];
        const fleet::ShardResult& b = par.shard_results[i];
        EXPECT_EQ(b.index, a.index);
        EXPECT_EQ(b.digest, a.digest) << "shard " << i;
        EXPECT_EQ(b.report.start, a.report.start) << "shard " << i;
        EXPECT_EQ(b.report.end, a.report.end) << "shard " << i;
        EXPECT_EQ(b.report.completed, a.report.completed) << "shard " << i;
        EXPECT_EQ(b.report.failed, a.report.failed) << "shard " << i;
        EXPECT_EQ(b.flight_reason, a.flight_reason) << "shard " << i;
      }
      // A floating-point sum: equal only if folded in the same order.
      EXPECT_EQ(par.throughput_jpmc, serial.throughput_jpmc);
      EXPECT_TRUE(par.e2e_sketch == serial.e2e_sketch);
      EXPECT_EQ(par.slo.to_json(), serial.slo.to_json());
      EXPECT_EQ(par.flight_dumps, serial.flight_dumps);
      EXPECT_EQ(par.flight_triggers, serial.flight_triggers);
      EXPECT_EQ(par.exact_e2e.count(), serial.exact_e2e.count());
      for (const double p : {50.0, 90.0, 99.0, 99.9}) {
        EXPECT_EQ(par.exact_e2e.percentile(p), serial.exact_e2e.percentile(p))
            << "p" << p;
      }
      EXPECT_TRUE(par.reproducible);
    }
  }
}

}  // namespace
}  // namespace ouessant
