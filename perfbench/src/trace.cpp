#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::open(const char* name, u64 op) {
  spans_.push_back(Span{.name = name,
                        .start_ns = now_ns(),
                        .end_ns = 0,
                        .parent = current_,
                        .op = op});
  current_ = static_cast<int>(spans_.size() - 1);
  return current_;
}

void Tracer::close(int idx) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Summary& sum = out[spans_[i].name];
    ++sum.count;
    sum.total_ns += d;
    sum.self_ns += d - child_ns[i];
  }
  return out;
}

}  // namespace perfbench
