#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "report.hpp"

namespace bmfperf {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.request =
      span.parent < 0
          ? request
          : tracer_.spans_[static_cast<std::size_t>(span.parent)].request;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(span);
  tracer_.open_.push_back(index_);
  tracer_.spans_.back().start_ns = monotonic_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = monotonic_ns();
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::median_by_name() const {
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans_) {
    durations[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) *
                                1e-3);
  }
  std::map<std::string, double> out;
  for (auto& [name, us] : durations) out[name] = median(std::move(us));
  return out;
}

std::vector<double> Tracer::durations_us(const std::string& prefix) const {
  std::vector<double> us;
  for (const Span& s : spans_) {
    if (std::string(s.name).rfind(prefix, 0) == 0) {
      us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return us;
}

double Tracer::layer_us_per_root(const std::string& root) const {
  std::size_t roots = 0;
  double layer_us = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) {
      roots += root == s.name ? 1 : 0;
    } else if (const Span& parent = spans_[static_cast<std::size_t>(s.parent)];
               parent.parent < 0 && root == parent.name) {
      layer_us += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    }
  }
  return roots == 0 ? 0.0 : layer_us / static_cast<double>(roots);
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f,"
                  "\"parent\":%lld,\"request\":%llu}\n",
                  s.name, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace bmfperf
