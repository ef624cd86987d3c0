// VCD export of MetricsSampler columns: golden-parse of the header
// structure, $enddefinitions placement and change-only emission; the
// width rule (each column as wide as its largest value, never truncated);
// the registration discipline the waveform relies on; and a round-trip
// oracle — replaying a real service run's VCD rebuilds every sampler row.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/sampler.hpp"
#include "sim/kernel.hpp"
#include "svc/service.hpp"

namespace ouessant {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::size_t find_line(const std::vector<std::string>& lines,
                      const std::string& needle, std::size_t from = 0) {
  for (std::size_t i = from; i < lines.size(); ++i) {
    if (lines[i].find(needle) != std::string::npos) return i;
  }
  ADD_FAILURE() << "no line containing: " << needle;
  return lines.size();
}

/// A VCD file read back: declarations in file order, then every
/// timestamp with the (column, value) changes listed under it.
struct ParsedVcd {
  struct Var {
    unsigned width = 0;
    std::string id;
    std::string name;
  };
  struct Stamp {
    Cycle cycle = 0;
    std::vector<std::pair<std::size_t, u64>> changes;
  };
  std::vector<Var> vars;
  std::vector<Stamp> stamps;
};

ParsedVcd parse_vcd(const std::string& path) {
  ParsedVcd vcd;
  std::map<std::string, std::size_t> column_of;
  bool body = false;
  for (const std::string& line : read_lines(path)) {
    if (!body) {
      if (line.starts_with("$var wire ")) {
        std::istringstream in(line.substr(10));
        ParsedVcd::Var v;
        in >> v.width >> v.id >> v.name;
        column_of[v.id] = vcd.vars.size();
        vcd.vars.push_back(v);
      }
      body = line == "$enddefinitions $end";
      continue;
    }
    if (line.starts_with('#')) {
      vcd.stamps.push_back(
          {.cycle = std::stoull(line.substr(1)), .changes = {}});
      continue;
    }
    EXPECT_FALSE(vcd.stamps.empty()) << "value change before a stamp";
    if (vcd.stamps.empty()) continue;
    std::string bits;
    std::string id;
    if (line.starts_with('b')) {
      const std::size_t space = line.find(' ');
      bits = line.substr(1, space - 1);
      id = line.substr(space + 1);
    } else {
      bits = line.substr(0, 1);
      id = line.substr(1);
    }
    const auto col = column_of.find(id);
    EXPECT_NE(col, column_of.end()) << line;
    if (col == column_of.end()) continue;
    EXPECT_EQ(bits.size(), vcd.vars[col->second].width) << line;
    vcd.stamps.back().changes.emplace_back(col->second,
                                           std::stoull(bits, nullptr, 2));
  }
  EXPECT_TRUE(body) << "no $enddefinitions in " << path;
  return vcd;
}

TEST(Vcd, GoldenParse) {
  const std::string path = temp_path("vcd_golden.vcd");
  sim::Kernel k;
  obs::MetricsSampler sampler(k, 1);
  sampler.add_gauge("busy", [&] { return k.now() >= 2 ? 1 : 0; });
  sampler.add_gauge("count", [&] { return k.now(); });
  sampler.add_gauge("constant", [] { return u64{0xAB}; });
  k.run(3);
  sampler.write_vcd(path, "dut");
  const auto lines = read_lines(path);
  ASSERT_FALSE(lines.empty());

  // Header: declarations in column order inside one scope, each as wide
  // as its largest value (count peaks at 3), sealed by $enddefinitions
  // before the first timestamp.
  find_line(lines, "$timescale 20ns $end");
  const std::size_t scope = find_line(lines, "$scope module dut $end");
  const std::size_t busy = find_line(lines, "$var wire 1 ! busy $end");
  const std::size_t count = find_line(lines, "$var wire 2 \" count $end");
  const std::size_t constant =
      find_line(lines, "$var wire 8 # constant $end");
  const std::size_t enddefs = find_line(lines, "$enddefinitions $end");
  const std::size_t first_stamp = find_line(lines, "#1");
  EXPECT_LT(scope, busy);
  EXPECT_LT(busy, count);
  EXPECT_LT(count, constant);
  EXPECT_LT(constant, enddefs);
  EXPECT_LT(enddefs, first_stamp);

  // Timestamps strictly increasing, and every value change belongs to
  // some timestamp section after the header.
  std::vector<u64> stamps;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i][0] == '#') {
      EXPECT_GT(i, enddefs);
      stamps.push_back(std::stoull(lines[i].substr(1)));
    }
  }
  ASSERT_EQ(stamps.size(), 3u);  // samples at cycles 1, 2, 3
  EXPECT_TRUE(std::is_sorted(stamps.begin(), stamps.end()));
  EXPECT_EQ(stamps.front(), 1u);
  EXPECT_EQ(stamps.back(), 3u);

  // First sample dumps every column once; afterwards only changes.
  const std::size_t stamp2 = find_line(lines, "#2");
  EXPECT_LT(find_line(lines, "0!"), stamp2);           // busy low at #1
  EXPECT_LT(find_line(lines, "b01 \""), stamp2);       // count = 1
  EXPECT_LT(find_line(lines, "b10101011 #"), stamp2);  // constant
  // busy rises exactly once, at the #2 sample.
  const std::size_t rise = find_line(lines, "1!");
  EXPECT_GT(rise, stamp2);
  // The constant column appears exactly once in the whole dump.
  std::size_t constant_changes = 0;
  for (std::size_t i = enddefs; i < lines.size(); ++i) {
    if (lines[i].find(" #") != std::string::npos && lines[i][0] == 'b') {
      ++constant_changes;
    }
  }
  EXPECT_EQ(constant_changes, 1u);
}

TEST(Vcd, WidthHoldsLargestValue) {
  // No column declares a width: a never-set column stays 1 bit, and a
  // full 64-bit value is dumped whole.
  const std::string path = temp_path("vcd_width.vcd");
  sim::Kernel k;
  obs::MetricsSampler sampler(k, 1);
  sampler.add_gauge("zero", [] { return u64{0}; });
  sampler.add_gauge("grows", [&] { return k.now() * 100; });
  sampler.add_gauge("full", [] { return ~u64{0}; });
  k.run(5);
  sampler.write_vcd(path, "dut");
  const auto lines = read_lines(path);
  find_line(lines, "$var wire 1 ! zero $end");
  find_line(lines, "$var wire 9 \" grows $end");  // 500 = 0b111110100
  find_line(lines, "$var wire 64 # full $end");
  find_line(lines, "b111110100 \"");
  find_line(lines, "b" + std::string(64, '1') + " #");
}

TEST(Vcd, LateRegistrationRejectedWithCycle) {
  // A column added after the first row would be missing from every
  // earlier row of the waveform.
  sim::Kernel k;
  obs::MetricsSampler sampler(k, 1);
  sampler.add_gauge("early", [] { return u64{0}; });
  k.run(5);
  try {
    sampler.add_gauge("late", [] { return u64{0}; });
    FAIL() << "late add_gauge did not throw";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("late"), std::string::npos);
    EXPECT_NE(what.find("cycle 5"), std::string::npos);
  }
}

TEST(Vcd, DuplicateSignalNameRejected) {
  // Gauges and stats share one name space: a VCD reference name must
  // name one waveform.
  sim::Kernel k;
  obs::MetricsSampler sampler(k, 1);
  sampler.add_gauge("sig", [] { return u64{0}; });
  EXPECT_THROW(sampler.add_gauge("sig", [] { return u64{1}; }), ConfigError);
  EXPECT_THROW(sampler.add_stat("sig"), ConfigError);
}

TEST(Vcd, RoundTripRebuildsEveryServiceRow) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1},
              svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2}};
  cfg.queue_depth = 64;
  svc::OffloadService service(std::move(cfg));
  obs::MetricsSampler sampler(service.soc().kernel(), 1);
  service.attach_metrics(sampler);
  // A monotonic counter gives the dump a wide column.
  sampler.add_gauge("bus_busy_cycles",
                    [&service] { return service.soc().bus().busy_cycles(); });
  svc::WorkloadConfig wl;
  wl.jobs = 40;
  wl.mean_gap = 120.0;
  const svc::ServiceReport rep = service.run(wl);
  ASSERT_EQ(rep.completed, 40u);
  ASSERT_EQ(sampler.columns().size(), 6u);  // 3 + one busy per worker + 1

  const std::string path = temp_path("vcd_roundtrip.vcd");
  sampler.write_vcd(path, "svc");
  const ParsedVcd vcd = parse_vcd(path);

  // One declaration per column, in column order, each exactly as wide
  // as the column's largest recorded value.
  const auto& columns = sampler.columns();
  const auto& rows = sampler.samples();
  ASSERT_EQ(vcd.vars.size(), columns.size());
  ASSERT_FALSE(rows.empty());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    EXPECT_EQ(vcd.vars[c].name, columns[c]);
    u64 peak = 0;
    for (const auto& row : rows) peak = std::max(peak, row.values[c]);
    EXPECT_EQ(vcd.vars[c].width,
              std::max(1u, static_cast<unsigned>(std::bit_width(peak))))
        << columns[c];
  }

  // Replay the value changes: the state at every row's cycle must be the
  // row itself, and no change may repeat the value already held.
  ASSERT_FALSE(vcd.stamps.empty());
  EXPECT_EQ(vcd.stamps.front().cycle, rows.front().cycle);
  EXPECT_EQ(vcd.stamps.front().changes.size(), columns.size());
  std::vector<u64> state(columns.size(), 0);
  std::size_t next = 0;
  for (const auto& row : rows) {
    if (next < vcd.stamps.size() && vcd.stamps[next].cycle == row.cycle) {
      EXPECT_FALSE(vcd.stamps[next].changes.empty());
      for (const auto& [col, value] : vcd.stamps[next].changes) {
        if (next > 0) {
          EXPECT_NE(state[col], value) << columns[col] << " @" << row.cycle;
        }
        state[col] = value;
      }
      ++next;
    }
    ASSERT_EQ(state, row.values) << "row at cycle " << row.cycle;
  }
  EXPECT_EQ(next, vcd.stamps.size()) << "stamps off the sampled cycles";
}

}  // namespace
}  // namespace ouessant
