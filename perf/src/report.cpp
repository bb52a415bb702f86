#include "report.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "telemetry/telemetry.hpp"

#ifndef BMF_PERF_BUILD_TYPE
#define BMF_PERF_BUILD_TYPE "unknown"
#endif

namespace bmfperf {

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  for (std::uint64_t i = 0; i < 4; ++i) s_[i] = mix(seed, 0x51ED + i);
}

std::uint64_t Rng::next_u64() {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t bound) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(bound));
}

double Rng::normal() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  const double v = uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  spare_ = r * std::sin(2.0 * M_PI * v);
  have_spare_ = true;
  return r * std::cos(2.0 * M_PI * v);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (lo == hi || values[lo] == values[hi]) return values[lo];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::count(const std::string& phase, bool ok, std::uint64_t n) {
  auto it = std::find_if(phases_.begin(), phases_.end(),
                         [&](const Phase& p) { return p.name == phase; });
  if (it == phases_.end()) {
    phases_.push_back(Phase{phase, 0, 0});
    it = phases_.end() - 1;
  }
  it->attempted += n;
  if (!ok) it->failed += n;
}

void Report::merge_counts(const Report& other) {
  for (const Phase& p : other.phases_) {
    count(p.name, true, p.attempted - p.failed);
    count(p.name, false, p.failed);
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(const std::string& name, bool passed, std::string detail) {
  checks_.push_back(Check{name, passed, std::move(detail)});
}

void Report::fact(const std::string& key, std::string json_value) {
  facts_.emplace_back(key, std::move(json_value));
}

void Report::fact(const std::string& key, double value) {
  fact(key, json_number(value));
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const Check& c : checks_) {
    if (!c.passed) return false;
  }
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) return false;
  }
  return failed() == 0;
}

std::uint64_t Report::attempted() const {
  std::uint64_t total = 0;
  for (const Phase& p : phases_) total += p.attempted;
  return total;
}

std::uint64_t Report::failed() const {
  std::uint64_t total = 0;
  for (const Phase& p : phases_) total += p.failed;
  return total;
}

void Report::print(const Options& options) const {
  std::string run = "{\"run\":{\"workload\":" + json_string(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + json_number(options.seconds) +
                    ",\"trace\":" + (options.trace ? "true" : "false") +
                    ",\"nproc\":" + std::to_string(cpu_count()) +
                    ",\"build_type\":" + json_string(BMF_PERF_BUILD_TYPE) +
                    ",\"telemetry\":" +
                    (bmfusion::telemetry::enabled() ? "\"on\"" : "\"off\"") +
                    ",\"git_rev\":" + json_string(options.git_rev);
  for (const auto& [key, value] : facts_) {
    run += "," + json_string(key) + ":" + value;
  }
  run += "},\"phases\":{";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Phase& p = phases_[i];
    if (i != 0) run += ',';
    run += json_string(p.name) + ":{\"attempted\":" +
           std::to_string(p.attempted) + ",\"succeeded\":" +
           std::to_string(p.attempted - p.failed) +
           ",\"failed\":" + std::to_string(p.failed) + "}";
  }
  run += "},\"checks\":{";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    if (i != 0) run += ',';
    run += json_string(c.name) + ":{\"passed\":" +
           (c.passed ? "true" : "false") +
           ",\"detail\":" + json_string(c.detail) + "}";
  }
  run += "}}";
  std::printf("%s\n", run.c_str());

  std::string result = std::string("{\"correct\":") +
                       (correct() ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted()) +
                       ",\"failed\":" + std::to_string(failed()) +
                       ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) result += ',';
    result += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
              ",\"unit\":" + json_string(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", ch);
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace bmfperf
