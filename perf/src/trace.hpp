// In-memory span recorder for the traced run.
//
// The traced run replays a workload's seeded operations by calling each
// layer's public functions from the driver; every call is wrapped in a span
// here, so nothing inside the library is instrumented. A root span is one
// replayed operation (it carries the request id); the layer spans below it
// are the public calls that operation is made of, each a leaf. A span's
// self time is its duration minus the time its child spans cover, so a
// layer span's self time is its duration.
//
// trace.unattributed_frac is not taken from the spans alone (a root span
// wraps exactly the calls it times, so it would close by construction):
// each workload compares the layer self times of its recorded operations
// with their end-to-end time from the untraced run.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"

namespace bmfperf {

struct Span {
  const char* name = nullptr;  ///< string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into the span list, -1 = root
  std::uint64_t request = 0;   ///< id of the replayed operation
};

class Tracer {
 public:
  /// A disabled tracer records nothing; the replay code path is otherwise
  /// the same, which is how the tracing overhead is measured.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened as a child of the innermost open span (or as a root
  /// when none is open), closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Drops every recorded span (no span may be open).
  void clear() {
    spans_.clear();
    open_.clear();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Median duration by span name (layer spans and root spans alike).
  [[nodiscard]] std::map<std::string, double> median_by_name() const;

  /// Durations of the spans whose name starts with `prefix`, in the order
  /// they were opened.
  [[nodiscard]] std::vector<double> durations_us(const std::string& prefix) const;

  /// Mean layer time per root span named `root`: the summed durations of
  /// its child spans over the number of such roots (0 when there is none).
  [[nodiscard]] double layer_us_per_root(const std::string& root) const;

  /// Writes the spans as JSON lines ({"name","start_us","dur_us","parent",
  /// "request"}) to `path`; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  ///< stack of open span indices
};

/// Runs `fn` on a new thread and returns its result. The traced replay
/// runs this way so that it starts from a fresh per-thread allocator
/// arena, as the server's I/O threads do, instead of the main thread's
/// heap after the run's checks.
template <typename Fn>
auto on_fresh_thread(Fn&& fn) -> decltype(fn()) {
  decltype(fn()) result{};
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      result = fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
  return result;
}

/// Runs `replay` (a callable taking a Tracer& and returning a result with
/// a `wall_s` member) untraced and traced, alternating, three times each on
/// fresh threads. Returns the last traced result; `tracer` holds its spans
/// and `overhead` the traced-minus-untraced median wall time as a share of
/// the untraced one.
template <typename Replay>
auto replay_traced(Replay&& replay, Tracer& tracer, double& overhead) {
  std::vector<double> plain;
  std::vector<double> traced;
  decltype(replay(tracer)) result{};
  for (int i = 0; i < 3; ++i) {
    Tracer off(false);
    plain.push_back(on_fresh_thread([&] { return replay(off); }).wall_s);
    tracer.clear();
    result = on_fresh_thread([&] { return replay(tracer); });
    traced.push_back(result.wall_s);
  }
  overhead = median(traced) / median(plain) - 1.0;
  return result;
}

/// Span medians by exact name (0 for a name never recorded).
class SpanTable {
 public:
  explicit SpanTable(const Tracer& tracer)
      : medians_(tracer.median_by_name()) {}
  [[nodiscard]] double median(const char* name) const {
    const auto it = medians_.find(name);
    return it == medians_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> medians_;
};

/// The traced tail every workload shares: replays untraced and traced
/// (replay_traced), records the tracing overhead on the run line and writes
/// the spans to options.trace_out. Returns the traced replay's result;
/// `tracer` holds its spans.
template <typename Replay>
auto run_traced(Replay&& replay, const Options& options, Report& report,
                Tracer& tracer) {
  double overhead = 0.0;
  auto result = replay_traced(replay, tracer, overhead);
  report.fact("tracing_overhead_frac", overhead);
  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    report.check("trace_written", false, options.trace_out);
  }
  return result;
}

/// Monotonic nanoseconds.
[[nodiscard]] std::uint64_t monotonic_ns();

}  // namespace bmfperf
