#include "fault/plan.hpp"

#include <climits>
#include <cstdint>
#include <optional>
#include <sstream>

#include "util/text.hpp"

namespace ouessant::fault {

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBusError: return "bus_err";
    case FaultKind::kRacHang: return "rac_hang";
    case FaultKind::kFifoCorrupt: return "fifo_corrupt";
    case FaultKind::kCtrlFlip: return "ctrl_flip";
    case FaultKind::kIrqDrop: return "irq_drop";
  }
  return "?";
}

namespace {

void validate(const FaultSpec& spec) {
  if (spec.at == 0 && spec.prob <= 0.0) {
    throw ConfigError(std::string("FaultPlan: ") + kind_name(spec.kind) +
                      " needs at=CYCLE or p=PROB to ever fire");
  }
  if (spec.at > 0 && spec.prob > 0.0) {
    throw ConfigError(std::string("FaultPlan: ") + kind_name(spec.kind) +
                      " cannot combine at= and p=");
  }
  if (!(spec.prob >= 0.0 && spec.prob <= 1.0)) {  // NaN fails too
    throw ConfigError("FaultPlan: p= must be in [0, 1]");
  }
  if (spec.bit > 31) {
    throw ConfigError("FaultPlan: bit= must be in [0, 31]");
  }
  if (spec.ocp < -1) {
    throw ConfigError("FaultPlan: ocp= must be >= 0 (or -1 for any)");
  }
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// A grammar number (decimal or 0x hex) in [@p lo, @p hi]; anything
/// else — malformed, negative where unsigned, out of range — is a
/// ConfigError naming the field, never a silent wrap or saturation.
i64 parse_int(const std::string& text, const std::string& what, i64 lo,
              i64 hi) {
  const std::optional<i64> v = util::parse_i64(text);
  if (!v || *v < lo || *v > hi) {
    throw ConfigError("FaultPlan: bad " + what + " value '" + text + "'");
  }
  return *v;
}

u64 parse_u64(const std::string& text, const std::string& what) {
  const std::optional<u64> v = util::parse_u64(text);
  if (!v) {
    throw ConfigError("FaultPlan: bad " + what + " value '" + text + "'");
  }
  return *v;
}

double parse_prob(const std::string& text) {
  const std::optional<double> v = util::parse_double(text);
  if (!v) throw ConfigError("FaultPlan: bad p= value '" + text + "'");
  return *v;
}

FaultKind parse_kind(const std::string& site) {
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (site == kind_name(kind)) return kind;
  }
  throw ConfigError("FaultPlan: unknown fault site '" + site +
                    "' (expected bus_err|rac_hang|fifo_corrupt|ctrl_flip|"
                    "irq_drop)");
}

}  // namespace

FaultPlan& FaultPlan::add(const FaultSpec& spec) {
  validate(spec);
  specs.push_back(spec);
  return *this;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  for (const std::string& clause : split(text, ';')) {
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      plan.seed = parse_u64(clause.substr(5), "seed=");
      continue;
    }
    const std::size_t at_pos = clause.find('@');
    FaultSpec spec;
    spec.kind = parse_kind(clause.substr(0, at_pos));
    if (at_pos != std::string::npos) {
      for (const std::string& field : split(clause.substr(at_pos + 1), ',')) {
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos) {
          throw ConfigError("FaultPlan: field '" + field +
                            "' is not key=value");
        }
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        if (key == "ocp") {
          spec.ocp = static_cast<int>(parse_int(val, "ocp=", -1, INT_MAX));
        } else if (key == "at") {
          spec.at = parse_u64(val, "at=");
        } else if (key == "p") {
          spec.prob = parse_prob(val);
        } else if (key == "count") {
          spec.count =
              static_cast<u32>(parse_int(val, "count=", 0, UINT32_MAX));
        } else if (key == "bit") {
          spec.bit = static_cast<u32>(parse_int(val, "bit=", 0, UINT32_MAX));
        } else {
          throw ConfigError("FaultPlan: unknown field '" + key +
                            "' (expected ocp|at|p|count|bit)");
        }
      }
    }
    plan.add(spec);
  }
  return plan;
}

std::string FaultPlan::str() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (const FaultSpec& spec : specs) {
    os << ';' << kind_name(spec.kind);
    os << '@';
    bool first = true;
    auto field = [&](const std::string& kv) {
      if (!first) os << ',';
      os << kv;
      first = false;
    };
    if (spec.ocp >= 0) field("ocp=" + std::to_string(spec.ocp));
    if (spec.at > 0) field("at=" + std::to_string(spec.at));
    if (spec.prob > 0.0) {
      std::ostringstream p;
      p << "p=" << spec.prob;
      field(p.str());
    }
    if (spec.count > 0) field("count=" + std::to_string(spec.count));
    if (spec.bit != 31) field("bit=" + std::to_string(spec.bit));
  }
  return os.str();
}

}  // namespace ouessant::fault
