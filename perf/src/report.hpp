// Shared pieces of the benchmark driver: options, the seeded input
// generator, latency summaries and the result report every workload fills.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace bmfperf {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< the process's CPU count
  std::string git_rev = "unknown";
  std::string trace_out;    ///< where the traced run writes its spans
};

/// CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] std::size_t cpu_count();

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Seconds since an arbitrary fixed point (steady clock).
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: derives independent stream seeds from (seed, tag).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t tag);

/// The benchmark's own input generator (xoshiro256** plus Box-Muller).
/// Kept separate from the library's RNG so that a change to the library
/// never changes the inputs the benchmark feeds it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next_u64();
  double uniform();                        ///< [0, 1)
  std::size_t below(std::size_t bound);    ///< [0, bound)
  double normal();

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// Linear-interpolated quantile; +inf entries (failed requests) sort last.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median of a non-empty sample.
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// cov_err_ratio: the geometric mean over checkpoints of BMF's covariance
/// error divided by MLE's on the same samples. The geometric mean keeps the
/// few checkpoints with a very small n (heavy-tailed errors) from setting
/// the figure.
class ErrorRatio {
 public:
  void add(double bmf_error, double mle_error) {
    log_sum_ += std::log(bmf_error / mle_error);
    ++count_;
  }
  void merge(const ErrorRatio& other) {
    log_sum_ += other.log_sum_;
    count_ += other.count_;
  }
  [[nodiscard]] double value() const {
    return std::exp(log_sum_ / static_cast<double>(count_));
  }

 private:
  double log_sum_ = 0.0;
  std::size_t count_ = 0;
};

/// Operations attempted and failed in one phase of a workload.
struct Phase {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// What one run reports: metrics, phase counts, correctness checks and
/// free-form run facts. print() writes a descriptive "run" line followed by
/// the one-line result object the benchmark contract asks for.
class Report {
 public:
  /// Counts one attempted operation of `phase`, failed unless `ok`.
  void count(const std::string& phase, bool ok, std::uint64_t n = 1);
  /// Adds `other`'s phase counts to this report's.
  void merge_counts(const Report& other);
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool passed, std::string detail = {});
  /// Adds a run fact; `json_value` must already be valid JSON.
  void fact(const std::string& key, std::string json_value);
  void fact(const std::string& key, double value);

  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

  void print(const Options& options) const;

 private:
  std::vector<Phase> phases_;
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

/// JSON string literal with escaping.
[[nodiscard]] std::string json_string(const std::string& text);
/// Shortest round-trip text of a double ("%.17g"); non-finite -> null.
[[nodiscard]] std::string json_number(double value);

}  // namespace bmfperf
