// Differential fuzzing: structured-random microcode programs executed on
// BOTH the cycle-level SoC (bus + controller + FIFOs + RAC) and the
// untimed functional emulator, then compared on final memory state and
// executed-operation counts. Any divergence is a model bug.
//
// Text-input fuzzing: seeded mutations of every text format the stack
// reads (trace, metrics and SLO files, fault specs, Ouessant and L3
// microcode) must either parse and round-trip or raise a typed error.
//
// Snapshot fuzzing: seeded, structure-aware mutations of a SoC image's
// "soc" section (the SRAM field's word count, block headers and payload
// bits, plus truncation), resealed with a fresh CRC so that the section
// reader and not the CRC check is what gets tested. Every mutant must
// restore or throw SnapshotError, and a rejected one leaves the SRAM as
// it was.
//
// Codec fuzzing: bit flips, truncation and inserted bytes applied to the
// RLE and Huffman encodings of a test image. Every mutant must decode or
// throw SimError; a coefficient or DC predictor that would leave i32 is
// one of those typed errors, never a signed overflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <climits>
#include <fstream>
#include <typeinfo>

#include "codec/huffman.hpp"
#include "codec/jpeg.hpp"

#include "drv/session.hpp"
#include "fault/plan.hpp"
#include "l3/asm.hpp"
#include "obs/analysis.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "ouessant/assembler.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/emulator.hpp"
#include "platform/soc.hpp"
#include "rac/passthrough.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace ouessant {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kBank1 = 0x4001'0000;
constexpr Addr kBank2 = 0x4002'0000;
constexpr u32 kBankWords = 4096;

/// Functional RAC consuming exactly @p chunks words per operation —
/// matching PassthroughRac's block envelope.
core::EmuRac block_passthrough(u32 chunks) {
  return [chunks](std::vector<std::deque<u32>>& in,
                  std::vector<std::deque<u32>>& out) {
    ASSERT_GE(in[0].size(), chunks) << "generator bug: underfed RAC";
    for (u32 i = 0; i < chunks; ++i) {
      out[0].push_back(in[0].front());
      in[0].pop_front();
    }
  };
}

struct GeneratedCase {
  core::Program program;
  u32 block_words;   // RAC block size
  u32 rounds;
};

/// Structured-random program: `rounds` rounds of
///   [nops] mvtc-ladder(block_words) (exec | execs [wait]) mvfc-ladder
/// with random segmentation, offsets, loops (contiguous auto-increment
/// ladders) and optional nops; ends with eop.
GeneratedCase generate(util::Rng& rng, bool allow_v2) {
  GeneratedCase g;
  // Block size: power-of-two words, 8..128.
  g.block_words = 8u << rng.below(5);
  g.rounds = 1 + rng.below(3);

  auto random_burst_split = [&](u32 total) {
    // Split `total` into bursts; each burst a power-of-two <= total.
    std::vector<u32> bursts;
    u32 left = total;
    while (left > 0) {
      u32 b = 1u << rng.below(9);  // 1..256
      b = std::min({b, left, 256u});
      // keep ladder lengths reasonable
      if (b < 4 && left >= 4) b = 4;
      bursts.push_back(b);
      left -= b;
    }
    return bursts;
  };

  for (u32 round = 0; round < g.rounds; ++round) {
    if (allow_v2 && rng.chance(0.3)) g.program.nop();
    if (allow_v2 && rng.chance(0.25)) g.program.irq();

    // Input ladder. Either a looped contiguous ladder (v2) or an
    // unrolled ladder with random (possibly overlapping) source offsets.
    const bool loop_in = allow_v2 && rng.chance(0.4) &&
                         (g.block_words % 8 == 0);
    if (loop_in) {
      const u32 burst = std::min(8u << rng.below(3), g.block_words);
      const u32 blocks = g.block_words / burst;
      const u32 base = rng.below(kBankWords - g.block_words);
      const u32 body = static_cast<u32>(g.program.size());
      g.program.mvtc(1, base, burst, 0);
      if (blocks > 1) g.program.loop(body, blocks - 1);
    } else {
      for (const u32 burst : random_burst_split(g.block_words)) {
        const u32 off = rng.below(kBankWords - burst);
        g.program.mvtc(1, off, burst, 0);
      }
    }

    // Launch.
    if (rng.chance(0.5)) {
      g.program.exec();
    } else {
      g.program.execs();
      if (allow_v2 && rng.chance(0.5)) g.program.wait();
    }

    // Output ladder into bank 2 (non-overlapping destinations per round
    // so rounds do not clobber each other's results inconsistently).
    const u32 round_base = round * (kBankWords / 4);
    const bool loop_out = allow_v2 && rng.chance(0.4) &&
                          (g.block_words % 8 == 0);
    if (loop_out) {
      const u32 burst = std::min(8u << rng.below(3), g.block_words);
      const u32 blocks = g.block_words / burst;
      const u32 body = static_cast<u32>(g.program.size());
      g.program.mvfc(2, round_base, burst, 0);
      if (blocks > 1) g.program.loop(body, blocks - 1);
    } else {
      u32 dst = round_base;
      for (const u32 burst : random_burst_split(g.block_words)) {
        g.program.mvfc(2, dst, burst, 0);
        dst += burst;
      }
    }
  }
  g.program.eop();
  return g;
}

class FuzzDifferential : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzDifferential, HardwareMatchesEmulator) {
  util::Rng rng(GetParam());
  const bool allow_v2 = (GetParam() % 2) == 0;
  const GeneratedCase g = generate(rng, allow_v2);
  ASSERT_TRUE(core::verify(g.program, 1, 1).ok) << g.program.listing();

  // Shared random input bank contents.
  std::vector<u32> bank1(kBankWords);
  for (auto& w : bank1) w = rng.next_u32();

  // ---------------- hardware run ---------------------------------------
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", g.block_words, 32);
  core::Ocp& ocp = soc.add_ocp(
      rac, allow_v2 ? core::IsaLevel::kV2 : core::IsaLevel::kV1);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kBank1,
                           .out_base = kBank2, .in_words = kBankWords,
                           .out_words = kBankWords});
  session.install(g.program, /*timed_program=*/false);
  soc.sram().load(kBank1, bank1);
  soc.sram().fill(0);  // clear everything...
  soc.sram().load(kBank1, bank1);  // ...but keep the input
  session.driver().install_program_backdoor(soc.sram(), kProg, g.program);
  session.run_poll(/*poll_gap=*/8);

  // ---------------- emulator run ---------------------------------------
  core::EmuConfig cfg;
  cfg.banks = {kProg, kBank1, kBank2, 0, 0, 0, 0, 0};
  std::map<Addr, u32> memory;
  for (u32 i = 0; i < kBankWords; ++i) memory[kBank1 + i * 4] = bank1[i];
  const core::EmuResult emu =
      core::emulate(g.program, cfg, memory, block_passthrough(g.block_words));
  ASSERT_TRUE(emu.ok) << emu.fault.to_string() << "\n" << g.program.listing();

  // ---------------- compare --------------------------------------------
  // Every output-bank address the emulator wrote must match the SoC SRAM.
  for (const auto& [addr, value] : memory) {
    if (addr < kBank2 || addr >= kBank2 + kBankWords * 4) continue;
    ASSERT_EQ(soc.sram().peek(addr), value)
        << "addr 0x" << std::hex << addr << std::dec << "\n"
        << g.program.listing();
  }
  const auto& stats = ocp.controller().stats();
  EXPECT_EQ(stats.instructions, emu.instructions) << g.program.listing();
  EXPECT_EQ(stats.words_to_rac, emu.words_to_rac);
  EXPECT_EQ(stats.words_from_rac, emu.words_from_rac);
  EXPECT_EQ(rac.completed_ops(), emu.rac_ops);
  EXPECT_EQ(stats.progress_irqs, emu.irqs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<u64>(1, 61));

// ---------------------------------------------------------- unit checks --

TEST(Emulator, PassthroughSmoke) {
  core::Program p;
  p.mvtc(1, 0, 4).exec().mvfc(2, 0, 4).eop();
  core::EmuConfig cfg;
  cfg.banks = {0, 0x100, 0x200, 0, 0, 0, 0, 0};
  std::map<Addr, u32> mem{{0x100, 10}, {0x104, 11}, {0x108, 12}, {0x10C, 13}};
  const auto r = core::emulate(p, cfg, mem, core::passthrough_emu_rac());
  ASSERT_TRUE(r.ok) << r.fault.to_string();
  EXPECT_EQ(mem[0x200], 10u);
  EXPECT_EQ(mem[0x20C], 13u);
  EXPECT_EQ(r.rac_ops, 1u);
  EXPECT_EQ(r.instructions, 4u);
}

TEST(Emulator, DetectsDeadlockingPrograms) {
  core::Program p;
  p.mvfc(2, 0, 4).eop();  // drain before anything was produced
  core::EmuConfig cfg;
  std::map<Addr, u32> mem;
  const auto r = core::emulate(p, cfg, mem, core::passthrough_emu_rac());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.fault.reason.find("underflow"), std::string::npos);
  EXPECT_EQ(r.fault.pc, 0u);  // faulting instruction is the first mvfc
}

TEST(Emulator, DetectsRunaway) {
  core::Program p;
  p.nop().nop();  // no eop
  core::EmuConfig cfg;
  std::map<Addr, u32> mem;
  const auto r = core::emulate(p, cfg, mem, core::passthrough_emu_rac());
  EXPECT_FALSE(r.ok);
}

TEST(Emulator, LoopAutoIncrementSemantics) {
  core::Program p;
  p.mvtc(1, 0, 2, 0).loop(0, 2).exec().mvfc(2, 0, 6, 0).eop();
  core::EmuConfig cfg;
  cfg.banks = {0, 0x100, 0x200, 0, 0, 0, 0, 0};
  std::map<Addr, u32> mem;
  for (u32 i = 0; i < 6; ++i) mem[0x100 + i * 4] = 100 + i;
  const auto r = core::emulate(p, cfg, mem, core::passthrough_emu_rac());
  ASSERT_TRUE(r.ok) << r.fault.to_string();
  for (u32 i = 0; i < 6; ++i) {
    EXPECT_EQ(mem[0x200 + i * 4], 100 + i) << i;  // contiguous walk
  }
}

// ------------------------------------------------------- text inputs --

/// Names that break naive JSON writers: a quote, a backslash, a newline.
const std::vector<std::string> kAwkwardNames = {"q\"x", "back\\slash",
                                                "new\nline"};

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "ouessant_fuzz_" + leaf;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

/// True when @p text is exactly one well-formed JSON value.
bool is_json(const std::string& text) {
  util::JsonCursor cur(text, "is_json");
  try {
    cur.skip_value();
  } catch (const SimError&) {
    return false;
  }
  try {
    (void)cur.peek();  // anything but trailing whitespace is an error
    return false;
  } catch (const SimError&) {
    return true;
  }
}

std::string seed_trace(const std::string& track, const std::string& span) {
  sim::Kernel kernel;
  obs::EventTracer tr(kernel);
  const obs::TrackId jobs = tr.track("svc.jobs");
  const obs::TrackId ctrl = tr.track(track);
  tr.complete(jobs, span, 10, 250,
              {obs::arg("id", 7), obs::arg("worker", track),
               obs::arg("wait", 12), obs::arg("service", 228)});
  tr.complete(ctrl, span, 20, 84, {obs::arg("pc", 3)});
  tr.instant(ctrl, "irq", {obs::arg(span, span)});
  tr.counter(jobs, "depth", 3);
  tr.flow_begin(jobs, "job", 7);
  tr.flow_end(ctrl, "job", 7);
  return tr.to_json();
}

std::string seed_metrics(const std::string& column) {
  sim::Kernel kernel;
  obs::MetricsSampler sampler(kernel, 64);
  sampler.add_gauge(column, [&] { return kernel.now() / 3; }, column, column);
  sampler.add_stat("bus.beats");
  kernel.run(256);
  return sampler.to_json();
}

obs::SloReport seed_slo(const std::string& cls) {
  obs::SloMonitor mon({.classes = {{.name = cls, .latency_cycles = 100},
                                   {.name = "normal", .latency_cycles = 400,
                                    .target = 0.99}},
                       .long_window = 1000,
                       .short_window = 100});
  for (Cycle c = 1; c <= 40; ++c) {
    mon.record_latency(static_cast<u32>(c % 2), c * 25, c * 9);
  }
  return mon.report();
}

const char* const kL3Seed =
    "start: li r1, 0x40001000\n"
    "       addi r2, r0, 5\n"
    "loop:  lw r3, 4(r1)\n"
    "       addi r2, r2, -1\n"
    "       bne r2, r0, loop\n"
    "       sw r3, 8(r1)\n"
    "       call start\n"
    "       .word 0xdeadbeef\n"
    "       halt\n";

/// One structure-aware mutation: flip a bit of one byte, truncate, or
/// extend a digit run past 2^64.
std::string mutate(util::Rng& rng, std::string s) {
  switch (rng.below(3)) {
    case 0:
      if (!s.empty()) {
        s[rng.below(static_cast<u32>(s.size()))] ^=
            static_cast<char>(1u << rng.below(8));
      }
      break;
    case 1:
      s.resize(rng.below(static_cast<u32>(s.size()) + 1));
      break;
    default: {
      std::vector<std::size_t> runs;
      for (std::size_t i = 0; i < s.size(); ++i) {
        const bool digit = std::isdigit(static_cast<unsigned char>(s[i]));
        const bool prev = i > 0 && std::isdigit(static_cast<unsigned char>(
                                       s[i - 1]));
        if (digit && !prev) runs.push_back(i);
      }
      if (!runs.empty()) {
        s.insert(runs[rng.below(static_cast<u32>(runs.size()))],
                 "98765432109876543210");
      }
    }
  }
  return s;
}

/// Run @p parse on @p iters mutants of @p seed. Success and typed errors
/// (SimError, which AsmError derives from, or ConfigError) pass; any
/// other exception is a bug and fails with the offending input.
template <typename F>
void fuzz_text(const std::string& seed, u64 rng_seed, F&& parse,
               int iters = 300) {
  util::Rng rng(rng_seed);
  parse(seed);  // the unmutated seed must be accepted
  for (int i = 0; i < iters; ++i) {
    std::string text = seed;
    const u32 rounds = 1 + rng.below(3);
    for (u32 r = 0; r < rounds; ++r) text = mutate(rng, text);
    try {
      parse(text);
    } catch (const SimError&) {
    } catch (const ConfigError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped " << typeid(e).name() << ": " << e.what()
                    << "\ninput:\n" << text;
    }
  }
}

TEST(TextFuzz, MutatedInputsParseOrFailTyped) {
  fuzz_text(seed_trace("ocp.idct0.ctrl", "mvtc"), 1, [](const auto& text) {
    const obs::ParsedTrace t = obs::parse_trace(text);
    EXPECT_TRUE(is_json(obs::render_json(t, 5))) << text;
  });

  const std::string metrics_path = temp_path("metrics.json");
  fuzz_text(seed_metrics("queue_depth"), 2, [&](const auto& text) {
    write_text(metrics_path, text);
    const obs::MetricsSampler::File f = obs::read_metrics(metrics_path);
    for (const auto& row : f.samples) {
      EXPECT_EQ(row.values.size(), f.columns.size());
    }
  });

  const std::string slo_path = temp_path("slo.json");
  fuzz_text(seed_slo("high").to_json(), 3, [&](const auto& text) {
    write_text(slo_path, text);
    const obs::SloReport rep = obs::read_slo_report(slo_path);
    rep.write_json(slo_path);
    EXPECT_EQ(obs::read_slo_report(slo_path).to_json(), rep.to_json());
  });

  fuzz_text("seed=7;bus_err@ocp=0,p=0.001;rac_hang@at=150000,ocp=1;"
            "fifo_corrupt@p=0.25,count=2,bit=3;irq_drop@ocp=-1,p=1",
            4, [](const auto& text) {
              const fault::FaultPlan plan = fault::FaultPlan::parse(text);
              EXPECT_EQ(fault::FaultPlan::parse(plan.str()).str(), plan.str())
                  << text;
            });

  fuzz_text(core::disassemble(core::figure4_program().image()), 5,
            [](const auto& text) {
              const core::Program p = core::assemble(text);
              EXPECT_EQ(core::assemble(core::disassemble(p.image())).image(),
                        p.image())
                  << text;
            });

  fuzz_text(kL3Seed, 6, [](const auto& text) {
    // Don't-care bits of a .word need not survive; the listing must.
    const std::string listing = l3::disassemble(l3::assemble(text).words);
    EXPECT_EQ(l3::disassemble(l3::assemble(listing).words), listing) << text;
  });
}

TEST(TextFuzz, AwkwardNamesSurviveEveryWriterAndReader) {
  for (const std::string& name : kAwkwardNames) {
    // tracer -> parse_trace -> render_json -> JSON parse
    const obs::ParsedTrace t = obs::parse_trace(seed_trace(name, name));
    EXPECT_EQ(t.track_name(1), name);
    ASSERT_FALSE(t.events.empty());
    EXPECT_EQ(t.events.front().name, name);
    const std::string analysis = obs::render_json(t, 5);
    EXPECT_TRUE(is_json(analysis)) << analysis;
    EXPECT_NE(analysis.find(util::json_quote(name)), std::string::npos);

    // sampler -> read_metrics
    const std::string metrics_path = temp_path("awkward.metrics.json");
    write_text(metrics_path, seed_metrics(name));
    const obs::MetricsSampler::File f = obs::read_metrics(metrics_path);
    ASSERT_EQ(f.columns.size(), 2u);
    EXPECT_EQ(f.columns[0], name);
    EXPECT_EQ(f.units[0], name);
    EXPECT_EQ(f.descriptions[0], name);

    // SLO report -> read_slo_report
    const std::string slo_path = temp_path("awkward.slo.json");
    const obs::SloReport rep = seed_slo(name);
    rep.write_json(slo_path);
    const obs::SloReport back = obs::read_slo_report(slo_path);
    ASSERT_EQ(back.classes.size(), 2u);
    EXPECT_EQ(back.classes[0].name, name);
    EXPECT_EQ(back.to_json(), rep.to_json());
  }
}

// ---------------------------------------------------------------------
// Snapshot fuzzing

u32 get_u32(const std::vector<u8>& b, std::size_t at) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(b[at + i]) << (8 * i);
  return v;
}

void put_u32(std::vector<u8>& b, std::size_t at, u32 v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<u8>(v >> (8 * i));
}

/// Byte offsets of the SRAM's words32 "data" field in a soc section.
struct SramField {
  std::size_t count = 0;             ///< the u32 word count
  std::vector<std::size_t> headers;  ///< each block's u32 header
  std::vector<std::size_t> payload;  ///< each payload word
};

SramField locate_sram_field(const std::vector<u8>& sec) {
  const std::vector<u8> head = {7, 4, 'd', 'a', 't', 'a'};  // tag, name
  const auto it = std::search(sec.begin(), sec.end(), head.begin(), head.end());
  EXPECT_NE(it, sec.end());
  SramField f;
  f.count = static_cast<std::size_t>(it - sec.begin()) + head.size();
  const u32 count = get_u32(sec, f.count);
  std::size_t pos = f.count + 4;
  for (u64 words = 0; words < count;) {
    const u32 block = get_u32(sec, pos);
    f.headers.push_back(pos);
    pos += 4;
    const bool literal = (block & 0x8000'0000u) != 0;
    const u32 n = block & 0x7fff'ffffu;
    for (u32 k = 0; k < (literal ? n : 1); ++k, pos += 4) {
      f.payload.push_back(pos);
    }
    words += n;
  }
  return f;
}

/// One structure-aware mutant of @p sec.
std::vector<u8> mutate_soc_section(util::Rng& rng, std::vector<u8> sec,
                                   const SramField& f) {
  auto any_of = [&](std::initializer_list<u32> vs) {
    return *(vs.begin() + rng.below(static_cast<u32>(vs.size())));
  };
  switch (rng.below(5)) {
    case 0: {  // the word count
      const u32 c = get_u32(sec, f.count);
      put_u32(sec, f.count,
              any_of({c - 1, c + 1, 0, 0x7fff'ffffu, 0xffff'ffffu,
                      rng.next_u32()}));
      break;
    }
    case 1: {  // a block header
      const std::size_t at = f.headers[rng.below(
          static_cast<u32>(f.headers.size()))];
      const u32 h = get_u32(sec, at);
      put_u32(sec, at,
              any_of({h ^ 0x8000'0000u, h + 1, h - 1, 0, 0x8000'0000u,
                      0x7fff'ffffu, 0xffff'ffffu, rng.next_u32()}));
      break;
    }
    case 2:  // truncation
      sec.resize(rng.below(static_cast<u32>(sec.size())));
      break;
    case 3: {  // one bit of a literal or run payload word
      const std::size_t at = f.payload[rng.below(
          static_cast<u32>(f.payload.size()))];
      sec[at + rng.below(4)] ^= static_cast<u8>(1u << rng.below(8));
      break;
    }
    default: {  // one bit anywhere from the count to the section's end
      const std::size_t at =
          f.count + rng.below(static_cast<u32>(sec.size() - f.count));
      sec[at] ^= static_cast<u8>(1u << rng.below(8));
    }
  }
  return sec;
}

/// The SRAM's counters and contents as bytes.
std::vector<u8> sram_state(const mem::Sram& m) {
  snap::StateWriter w;
  m.save_state(w);
  return w.take();
}

TEST(SnapFuzz, MutatedSocSectionRestoresOrRejectsUntouched) {
  platform::Soc src;
  util::Rng fill(11);
  for (u32 i = 0; i < 3000; ++i) {  // literals across page edges
    src.sram().poke(kBank1 + 0xf00 + i * 4, fill.below(4));
  }
  for (u32 i = 0; i < 2048; ++i) src.sram().poke(kBank2 + i * 4, 0xc0de);
  src.sram().poke(kProg + (16u << 20) - 4, 1);  // the last word
  src.cpu().spend(100);
  const snap::Snapshot image = src.snapshot();
  const std::vector<u8>& soc = image.section("soc").bytes;
  const SramField field = locate_sram_field(soc);
  ASSERT_GT(field.headers.size(), 3u);

  platform::Soc target;
  target.sram().load(kBank1, {5, 6, 7, 8, 9});
  (void)target.sram().read_word(kBank1);
  util::Rng rng(0x5a4f);
  int restored = 0;
  int rejected = 0;
  for (int i = 0; i < 600; ++i) {
    const std::vector<u8> mutant = mutate_soc_section(rng, soc, field);
    snap::Snapshot m;
    for (const snap::Section& s : image.sections()) {
      m.add(s.name, s.version, s.name == "soc" ? mutant : s.bytes);
    }
    const snap::Snapshot sealed = snap::Snapshot::deserialize(m.serialize());
    const std::vector<u8> before = sram_state(target.sram());
    const std::size_t pages = target.sram().resident_pages();
    try {
      target.restore(sealed);
      ++restored;
    } catch (const snap::SnapshotError&) {
      ++rejected;
      EXPECT_EQ(sram_state(target.sram()), before) << "case " << i;
      EXPECT_EQ(target.sram().resident_pages(), pages) << "case " << i;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << ": untyped " << typeid(e).name()
                    << ": " << e.what();
    }
  }
  // The stream reaches both outcomes.
  EXPECT_GT(restored, 50);
  EXPECT_GT(rejected, 300);
}

TEST(SnapFuzz, HugeKernelCountsAreTypedErrors) {
  // A count read from the image must never size an allocation: the
  // reads past the section's end are what reject it.
  platform::Soc src;
  src.cpu().spend(100);
  const snap::Snapshot image = src.snapshot();
  for (const std::string field : {"stat_count", "timer_count"}) {
    std::vector<u8> kernel = image.section("kernel").bytes;
    std::vector<u8> head = {3, static_cast<u8>(field.size())};  // kU32
    head.insert(head.end(), field.begin(), field.end());
    const auto it =
        std::search(kernel.begin(), kernel.end(), head.begin(), head.end());
    ASSERT_NE(it, kernel.end()) << field;
    put_u32(kernel, static_cast<std::size_t>(it - kernel.begin()) + head.size(),
            0xffff'ffffu);
    snap::Snapshot m;
    for (const snap::Section& s : image.sections()) {
      m.add(s.name, s.version, s.name == "kernel" ? kernel : s.bytes);
    }
    platform::Soc target;
    EXPECT_THROW(target.restore(m), snap::SnapshotError) << field;
  }
}

// ------------------------------------------------------------ codec fuzz

TEST(CodecFuzz, RleDequantizeOverflowIsATypedError) {
  // Run 0, a varint for INT32_MAX, end of block: times the quality-50
  // DC entry (16) the coefficient leaves i32.
  const codec::JpegImage img{.width = 8,
                             .height = 8,
                             .quality = 50,
                             .entropy = codec::EntropyKind::kRle,
                             .payload = {0x00, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F,
                                         0xFF}};
  EXPECT_THROW((void)codec::decode_coefficients(img), SimError);
  // Without the multiply the value is representable.
  EXPECT_EQ(codec::decode_quantized(img)[0][0], INT32_MAX);
}

TEST(CodecFuzz, HuffmanDequantizeOverflowNamesTheBlock) {
  // Every block's DC difference is +2047, so block b carries DC
  // 2047 * (b + 1); at quality 1 every table entry is 255, and block
  // 4114 is the first whose product leaves i32.
  codec::BitWriter w;
  i32 pred = 0;
  for (i32 b = 0; b < 5000; ++b) {
    i32 scan[codec::kBlockSize] = {};
    scan[0] = 2047 * (b + 1);
    codec::huff_encode_block(w, scan, pred);
  }
  const codec::JpegImage img{.width = 8 * 5000,
                             .height = 8,
                             .quality = 1,
                             .entropy = codec::EntropyKind::kHuffman,
                             .payload = w.finish()};
  EXPECT_EQ(codec::decode_quantized(img).size(), 5000u);
  try {
    (void)codec::decode_coefficients(img);
    ADD_FAILURE() << "overflowing coefficient decoded";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("block 4114"), std::string::npos)
        << e.what();
  }
}

TEST(CodecFuzz, DcPredictorOverflowIsATypedError) {
  codec::BitWriter w;
  i32 enc_pred = 0;
  i32 scan[codec::kBlockSize] = {};
  scan[0] = 2047;
  codec::huff_encode_block(w, scan, enc_pred);
  const std::vector<u8> bytes = w.finish();
  codec::BitReader in(bytes);
  i32 out[codec::kBlockSize];
  i32 pred = INT32_MAX - 100;
  EXPECT_THROW(codec::huff_decode_block(in, out, pred), SimError);
}

/// One payload mutation: a bit flip, a truncation, or 1-5 inserted
/// bytes biased toward the values that end blocks and extend varints.
void mutate_payload(util::Rng& rng, std::vector<u8>& p) {
  switch (rng.below(3)) {
    case 0:
      if (!p.empty()) {
        p[rng.below(static_cast<u32>(p.size()))] ^=
            static_cast<u8>(1u << rng.below(8));
      }
      break;
    case 1:
      p.resize(rng.below(static_cast<u32>(p.size()) + 1));
      break;
    default: {
      static constexpr u8 kBytes[] = {0x00, 0xFF, 0x7F, 0x80, 0xFE, 0x0F};
      const u32 at = rng.below(static_cast<u32>(p.size()) + 1);
      const u32 n = 1 + rng.below(5);
      for (u32 i = 0; i < n; ++i) {
        const u8 b = rng.below(2) == 0 ? kBytes[rng.below(6)]
                                       : static_cast<u8>(rng.below(256));
        p.insert(p.begin() + at, b);
      }
    }
  }
}

TEST(CodecFuzz, MutatedStreamsDecodeOrFailTyped) {
  const codec::Raster raster = codec::test_image(64, 32);
  util::Rng rng(0xC0DEC);
  for (const codec::EntropyKind entropy :
       {codec::EntropyKind::kRle, codec::EntropyKind::kHuffman}) {
    for (const u32 quality : {1u, 50u}) {
      const codec::JpegImage seed = codec::encode(raster, quality, entropy);
      int decoded = 0;
      int rejected = 0;
      for (int i = 0; i < 400; ++i) {
        codec::JpegImage img = seed;
        const u32 rounds = 1 + rng.below(3);
        for (u32 r = 0; r < rounds; ++r) mutate_payload(rng, img.payload);
        try {
          (void)codec::decode_coefficients(img);
          (void)codec::decode_quantized(img);
          ++decoded;
        } catch (const SimError&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "case " << i << ": untyped " << typeid(e).name()
                        << ": " << e.what();
        }
      }
      // The stream reaches both outcomes.
      EXPECT_GT(decoded, 0) << "quality " << quality;
      EXPECT_GT(rejected, 0) << "quality " << quality;
    }
  }
}

}  // namespace
}  // namespace ouessant
