#include "obs/sampler.hpp"

#include <algorithm>
#include <bit>
#include <fstream>

#include "obs/artifact.hpp"
#include "util/text.hpp"

namespace ouessant::obs {

MetricsSampler::MetricsSampler(sim::Kernel& kernel, u64 period)
    : kernel_(kernel), period_(period) {
  if (period_ == 0) {
    throw ConfigError("MetricsSampler: period must be >= 1");
  }
  sampler_id_ = kernel_.add_sampler([this](Cycle c) { sample(c); });
}

MetricsSampler::~MetricsSampler() { kernel_.remove_sampler(sampler_id_); }

void MetricsSampler::reject_if_started(const std::string& name) const {
  if (!samples_.empty()) {
    throw SimError("MetricsSampler: column " + name +
                   " added after sampling started (cycle " +
                   std::to_string(kernel_.now()) +
                   "); earlier rows would be misaligned");
  }
  for (const std::string& c : columns_) {
    if (c == name) {
      throw ConfigError("MetricsSampler: duplicate column " + name);
    }
  }
}

void MetricsSampler::add_gauge(const std::string& name,
                               std::function<u64()> fn,
                               const std::string& unit,
                               const std::string& desc) {
  reject_if_started(name);
  // Gauges form the column head; keep stat keys behind them so the
  // documented column order (gauges, then stats) holds regardless of
  // registration interleaving. units_/descs_ mirror columns_.
  const auto at = static_cast<std::ptrdiff_t>(gauges_.size());
  columns_.insert(columns_.begin() + at, name);
  units_.insert(units_.begin() + at, unit);
  descs_.insert(descs_.begin() + at, desc);
  gauges_.push_back(std::move(fn));
}

void MetricsSampler::add_stat(const std::string& key,
                              const std::string& unit,
                              const std::string& desc) {
  reject_if_started(key);
  columns_.push_back(key);
  units_.push_back(unit);
  descs_.push_back(desc);
  stat_keys_.push_back(key);
}

void MetricsSampler::sample(Cycle cycle) {
  if (cycle % period_ != 0) return;
  Sample s;
  s.cycle = cycle;
  s.values.reserve(columns_.size());
  for (const auto& g : gauges_) s.values.push_back(g());
  for (const std::string& k : stat_keys_) {
    s.values.push_back(kernel_.stats().get(k));
  }
  samples_.push_back(std::move(s));
}

namespace {

/// `["a", "b"]`, each element escaped.
void append_strings(std::string& out, const std::vector<std::string>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += util::json_quote(v[i]);
  }
  out += ']';
}

/// The reader's inverse of append_strings.
std::vector<std::string> string_array(util::JsonCursor& cur) {
  std::vector<std::string> out;
  cur.expect('[');
  if (cur.consume(']')) return out;
  do {
    out.push_back(cur.string());
  } while (cur.consume(','));
  cur.expect(']');
  return out;
}

/// Printable VCD identifier for column @p index, '!' (33) to '~' (126).
std::string vcd_id(std::size_t index) {
  std::string id;
  do {
    id.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index != 0);
  return id;
}

}  // namespace

std::string MetricsSampler::to_json() const {
  std::string out;
  out.reserve(128 + samples_.size() * 32);
  out += "{\n\"schema\": \"ouessant.metrics.v1\",\n\"period\": ";
  out += std::to_string(period_);
  out += ",\n\"columns\": ";
  append_strings(out, columns_);
  // Units/descriptions registry: parallel to columns, so a consumer can
  // zip the three arrays. Kept as separate arrays (not objects) to
  // preserve the compact row-array sample encoding below.
  out += ",\n\"units\": ";
  append_strings(out, units_);
  out += ",\n\"descriptions\": ";
  append_strings(out, descs_);
  out += ",\n\"samples\": [\n";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "[";
    out += std::to_string(samples_[i].cycle);
    for (const u64 v : samples_[i].values) {
      out += ", ";
      out += std::to_string(v);
    }
    out += "]";
  }
  out += "\n]\n}\n";
  return out;
}

void MetricsSampler::write_json(const std::string& path) const {
  std::ofstream out = open_artifact(path, "MetricsSampler");
  out << to_json();
}

void MetricsSampler::write_vcd(const std::string& path,
                               const std::string& top) const {
  std::vector<unsigned> widths(columns_.size(), 1);
  for (const Sample& s : samples_) {
    for (std::size_t c = 0; c < s.values.size(); ++c) {
      widths[c] = std::max(widths[c],
                           static_cast<unsigned>(std::bit_width(s.values[c])));
    }
  }
  std::vector<std::string> ids;
  for (std::size_t c = 0; c < columns_.size(); ++c) ids.push_back(vcd_id(c));

  std::ofstream out = open_artifact(path, "MetricsSampler");
  out << "$date simulated $end\n$version ouessant-sim $end\n"
      << "$timescale 20ns $end\n$scope module " << top << " $end\n";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out << "$var wire " << widths[c] << ' ' << ids[c] << ' ' << columns_[c]
        << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n";

  const Sample* prev = nullptr;
  for (const Sample& s : samples_) {
    bool stamped = false;
    for (std::size_t c = 0; c < s.values.size(); ++c) {
      const u64 v = s.values[c];
      if (prev != nullptr && prev->values[c] == v) continue;
      if (!stamped) {
        out << '#' << s.cycle << '\n';
        stamped = true;
      }
      if (widths[c] == 1) {
        out << v << ids[c] << '\n';
        continue;
      }
      out << 'b';
      for (int b = static_cast<int>(widths[c]) - 1; b >= 0; --b) {
        out << ((v >> b) & 1);
      }
      out << ' ' << ids[c] << '\n';
    }
    prev = &s;
  }
}

// ----------------------------------------------------------------- parser

MetricsSampler::File read_metrics(const std::string& path) {
  const std::string text = util::read_file(path, "read_metrics");
  util::JsonCursor cur(text, "read_metrics(" + path + ")");

  MetricsSampler::File file;
  bool saw_schema = false;
  cur.expect('{');
  while (true) {
    const std::string key = cur.string();
    cur.expect(':');
    if (key == "schema") {
      const std::string schema = cur.string();
      if (schema != "ouessant.metrics.v1") {
        cur.fail("unsupported schema \"" + schema + "\"");
      }
      saw_schema = true;
    } else if (key == "period") {
      file.period = cur.uint();
    } else if (key == "columns") {
      file.columns = string_array(cur);
    } else if (key == "units") {
      file.units = string_array(cur);
    } else if (key == "descriptions") {
      file.descriptions = string_array(cur);
    } else if (key == "samples") {
      cur.expect('[');
      if (!cur.consume(']')) {
        do {
          cur.expect('[');
          MetricsSampler::Sample s;
          s.cycle = cur.uint();
          while (cur.consume(',')) s.values.push_back(cur.uint());
          cur.expect(']');
          file.samples.push_back(std::move(s));
        } while (cur.consume(','));
        cur.expect(']');
      }
    } else {
      cur.fail("unknown field \"" + key + "\"");
    }
    if (!cur.consume(',')) break;
  }
  cur.expect('}');
  if (!saw_schema) {
    cur.fail("missing \"schema\" field (not an ouessant.metrics.v1 file?)");
  }
  if (file.units.size() != file.columns.size() ||
      file.descriptions.size() != file.columns.size()) {
    throw SimError("read_metrics(" + path +
                   "): units/descriptions arrays do not match columns");
  }
  for (const MetricsSampler::Sample& s : file.samples) {
    if (s.values.size() != file.columns.size()) {
      throw SimError("read_metrics(" + path + "): row at cycle " +
                     std::to_string(s.cycle) +
                     " does not match the column registry");
    }
  }
  return file;
}

}  // namespace ouessant::obs
