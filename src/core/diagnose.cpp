#include "core/diagnose.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"

namespace bmfusion::core {

namespace {

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c); break;
    }
  }
  return out;
}

/// The counters the numeric-health section reports, in display order. A
/// counter absent from the snapshot is simply skipped, so older snapshots
/// stay ingestible.
constexpr const char* kHealthCounters[] = {
    "circuit.dc.solves",
    "circuit.dc.warm_start_hits",
    "circuit.dc.warm_start_misses",
    "circuit.dc.gmin_ladder_solves",
    "circuit.dc.source_step_solves",
    "circuit.dc.damped_ladder_solves",
    "circuit.dc.failures",
    "circuit.dc.newton_iterations",
    "circuit.mc.samples",
    "circuit.mc.elapsed_us",
    "circuit.mc.busy_us",
    "linalg.cholesky.jitter_activations",
    "linalg.cholesky.jitter_retries",
    "linalg.ldlt.pivot_clamps",
    "core.cv.selections",
    "core.cv.grid_points",
    "core.cv.disqualified_points",
    "core.loglik.fallback_jitter",
    "core.loglik.fallback_ldlt",
    "core.stream.snapshots",
    "core.stream.snapshot_hits",
    "fusion.observed_samples",
    "fusion.absorbed_shards",
    "fusion.snapshots",
    "fusion.corner_samples",
    "serve.requests",
    "serve.observed_samples",
    "serve.errors",
    "serve.slow_requests",
    "serve.oversized_requests",
    "serve.slow_consumer_closes",
    "serve.connections",
    "serve.disconnects",
    "serve.admin.requests",
};

void ingest_snapshot_value(const JsonValue& snapshot,
                           const std::string& origin, RunReport& report,
                           const DoctorThresholds& thresholds) {
  const JsonValue* counters = snapshot.find("counters");
  if (counters == nullptr || !counters->is_object()) {
    throw DataError("telemetry snapshot has no counters object",
                    ErrorContext{}.with_operation("doctor-snapshot")
                        .with_detail(origin));
  }
  for (const char* name : kHealthCounters) {
    const JsonValue* value = counters->find(name);
    if (value != nullptr && value->is_number()) {
      report.health_counters.push_back({name, value->as_number()});
    }
  }

  const double hits = counters->number_or("circuit.dc.warm_start_hits", 0.0);
  const double misses =
      counters->number_or("circuit.dc.warm_start_misses", 0.0);
  if (hits + misses > 0.0) {
    report.warm_start_hit_rate = hits / (hits + misses);
  }

  const double grid_points = counters->number_or("core.cv.grid_points", 0.0);
  const double disqualified =
      counters->number_or("core.cv.disqualified_points", 0.0);
  if (grid_points > 0.0) {
    report.cv_disqualified_ratio = disqualified / grid_points;
    if (*report.cv_disqualified_ratio > thresholds.max_disqualified_ratio) {
      std::ostringstream os;
      os << "cv disqualified " << format_double(disqualified) << " of "
         << format_double(grid_points) << " grid points ("
         << format_double(100.0 * *report.cv_disqualified_ratio)
         << "%), above the " << format_double(
                100.0 * thresholds.max_disqualified_ratio)
         << "% threshold";
      report.findings.push_back(os.str());
    }
  }

  // Parallel Monte Carlo utilisation. busy_us sums each worker's wall time
  // inside sample bodies; elapsed_us is the run's wall time. A pool that
  // keeps every worker loaded puts busy at elapsed * threads, so the ratio
  // is the fraction of the run each worker spent with work assigned — it
  // drops on starvation or an imbalanced partition, and stays meaningful on
  // oversubscribed hosts where per-worker wall time overlaps (actual
  // speedup there is the bench sentinel's job, not the snapshot's).
  // Single-threaded runs are skipped — busy/elapsed is trivially ~1 and
  // says nothing about the pool.
  const JsonValue* gauges = snapshot.find("gauges");
  const double mc_busy = counters->number_or("circuit.mc.busy_us", 0.0);
  const double mc_elapsed = counters->number_or("circuit.mc.elapsed_us", 0.0);
  if (gauges != nullptr && gauges->is_object() && mc_elapsed > 0.0) {
    const double threads = gauges->number_or("circuit.mc.threads", 0.0);
    if (threads > 1.0) {
      report.mc_parallel_efficiency = mc_busy / (mc_elapsed * threads);
      if (*report.mc_parallel_efficiency <
          thresholds.min_mc_parallel_efficiency) {
        std::ostringstream os;
        os << "monte carlo parallel efficiency "
           << format_double(*report.mc_parallel_efficiency) << " on "
           << format_double(threads)
           << " thread(s): workers sat idle for a large fraction of the "
              "run, below the "
           << format_double(thresholds.min_mc_parallel_efficiency)
           << " floor";
        report.findings.push_back(os.str());
      }
    }
  }

  // Multi-population fusion state: present whenever a run drove a
  // MultiPopulationEstimator (gauge fusion.populations is set on every
  // joint snapshot). Per-population tallies come from the dynamic
  // fusion.population.<p>.samples gauges.
  if (gauges != nullptr && gauges->is_object()) {
    const double populations = gauges->number_or("fusion.populations", 0.0);
    if (populations > 0.0) {
      FusionSummary fusion;
      fusion.populations = static_cast<std::size_t>(populations);
      fusion.observed_populations = static_cast<std::size_t>(
          gauges->number_or("fusion.observed_populations", 0.0));
      fusion.signal_variance =
          gauges->number_or("fusion.signal_variance", 0.0);
      fusion.shrinkage = gauges->number_or("fusion.shrinkage_lambda", 0.0);
      fusion.mean_abs_correlation =
          gauges->number_or("fusion.mean_abs_correlation", 0.0);
      constexpr std::string_view kPrefix = "fusion.population.";
      constexpr std::string_view kSuffix = ".samples";
      for (const auto& [name, value] : gauges->as_object()) {
        if (name.size() <= kPrefix.size() + kSuffix.size() ||
            name.compare(0, kPrefix.size(), kPrefix) != 0 ||
            name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) != 0 ||
            !value.is_number()) {
          continue;
        }
        const std::string digits = name.substr(
            kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos) {
          continue;
        }
        fusion.population_samples.emplace_back(std::stoul(digits),
                                               value.as_number());
      }
      std::sort(fusion.population_samples.begin(),
                fusion.population_samples.end());
      if (fusion.observed_populations < fusion.populations) {
        std::ostringstream os;
        os << "fusion: " << fusion.populations - fusion.observed_populations
           << " of " << fusion.populations
           << " population(s) had no usable samples at the last joint "
              "snapshot";
        report.findings.push_back(os.str());
      }
      report.fusion = std::move(fusion);
    }
  }

  const double failures = counters->number_or("circuit.dc.failures", 0.0);
  if (failures > 0.0) {
    report.findings.push_back("dc solver failed to converge " +
                              format_double(failures) + " time(s)");
  }
  const double damped =
      counters->number_or("circuit.dc.damped_ladder_solves", 0.0);
  if (damped > 0.0) {
    report.findings.push_back(
        "dc solver escalated to the damped (last-resort) ladder " +
        format_double(damped) + " time(s)");
  }
  const double ldlt_fallback =
      counters->number_or("core.loglik.fallback_ldlt", 0.0);
  if (ldlt_fallback > 0.0) {
    report.findings.push_back(
        "likelihood scoring hit the clamped-LDLT last resort " +
        format_double(ldlt_fallback) + " time(s)");
  }

  // Serve-plane state: surface every serve.* gauge (session counts,
  // per-loop connection/buffer/pipeline gauges) and flag recorded slow
  // requests.
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->as_object()) {
      if (name.rfind("serve.", 0) == 0 && value.is_number()) {
        report.serve_gauges.push_back({name, value.as_number()});
      }
    }
  }
  const double slow = counters->number_or("serve.slow_requests", 0.0);
  if (slow > 0.0) {
    report.findings.push_back(format_double(slow) +
                              " slow serve request(s) over the configured "
                              "--slow-request-us threshold");
  }

  const JsonValue* histograms = snapshot.find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, hist] : histograms->as_object()) {
      HistogramQuantiles q;
      q.name = name;
      q.count = static_cast<std::uint64_t>(hist.number_or("count", 0.0));
      q.p50 = hist.number_or("p50", 0.0);
      q.p95 = hist.number_or("p95", 0.0);
      q.p99 = hist.number_or("p99", 0.0);
      // Latency budget for the serve plane: per-op histograms record
      // microseconds, the threshold is in milliseconds.
      constexpr std::string_view kLatencySuffix = ".latency_us";
      if (thresholds.max_serve_p99_ms > 0.0 && q.count > 0 &&
          name.rfind("serve.", 0) == 0 && name.size() > kLatencySuffix.size() &&
          name.compare(name.size() - kLatencySuffix.size(),
                       kLatencySuffix.size(), kLatencySuffix) == 0 &&
          q.p99 > thresholds.max_serve_p99_ms * 1000.0) {
        std::ostringstream os;
        os << name << " p99 is " << format_double(q.p99 * 1e-3)
           << " ms, above the " << format_double(thresholds.max_serve_p99_ms)
           << " ms budget";
        report.findings.push_back(os.str());
      }
      report.histograms.push_back(std::move(q));
    }
  }
}

void ingest_snapshot(const std::string& path, RunReport& report,
                     const DoctorThresholds& thresholds) {
  ingest_snapshot_value(parse_json_file(path), path, report, thresholds);
}

void ingest_log(const std::string& path, RunReport& report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw DataError("cannot open log file",
                    ErrorContext{}.with_operation("doctor-log")
                        .with_detail(path));
  }
  LogSummary summary;
  std::string line;
  constexpr std::size_t kMaxRecent = 5;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue record;
    try {
      record = parse_json(line);
    } catch (const DataError&) {
      ++summary.malformed_lines;
      continue;
    }
    if (record.find("flight_recorder_dump") != nullptr) {
      ++summary.flight_dumps;
      continue;
    }
    ++summary.total;
    const std::string level = record.string_or("level", "");
    if (level == "debug") ++summary.debug;
    else if (level == "info") ++summary.info;
    else if (level == "warn") ++summary.warn;
    else if (level == "error") ++summary.error;
    const std::string msg = record.string_or("msg", "");
    if (msg == "error raised") ++summary.error_notifications;
    if (level == "warn" || level == "error") {
      if (summary.recent_warnings.size() >= kMaxRecent) {
        summary.recent_warnings.erase(summary.recent_warnings.begin());
      }
      summary.recent_warnings.push_back(level + ": " + msg);
    }
  }
  if (summary.error > 0) {
    report.findings.push_back(format_double(
                                  static_cast<double>(summary.error)) +
                              " error-level log event(s) recorded");
  }
  report.log_summary = std::move(summary);
}

void ingest_cv_surface(const std::string& path, RunReport& report) {
  const CsvTable table = read_csv_file(path, /*expect_header=*/true);
  if (table.column_count() < 3) {
    throw DataError("cv surface csv needs kappa0,nu0,score columns",
                    ErrorContext{}.with_operation("doctor-cv-surface")
                        .with_detail(path));
  }
  for (const auto& row : table.rows) {
    report.cv_surface.push_back({row[0], row[1], row[2]});
  }
  std::sort(report.cv_surface.begin(), report.cv_surface.end(),
            [](const CvSurfacePoint& a, const CvSurfacePoint& b) {
              return a.score > b.score;
            });
  if (!report.cv_surface.empty()) {
    report.cv_best = report.cv_surface.front();
  }
}

/// Finds the most recent prior record sharing the newest record's bench
/// name, so mixed histories (micro_circuit + micro_cv in one file) compare
/// like with like.
void ingest_bench(const std::string& path, RunReport& report,
                  const DoctorThresholds& thresholds) {
  const JsonValue history = parse_json_file(path);
  const auto& records = history.as_array();
  if (records.size() < 1) return;
  const JsonValue& newest = records.back();
  report.bench_label = newest.string_or("label", "(unlabeled)");
  const std::string bench_name = newest.string_or("bench", "");
  const JsonValue* previous = nullptr;
  for (std::size_t i = records.size() - 1; i-- > 0;) {
    if (records[i].string_or("bench", "") == bench_name) {
      previous = &records[i];
      break;
    }
  }
  if (previous == nullptr) return;

  const auto add_delta = [&](const std::string& metric, double prev,
                             double cur, bool higher_is_better,
                             double threshold_pct) {
    if (prev == 0.0) return;
    BenchDelta delta;
    delta.metric = metric;
    delta.previous = prev;
    delta.current = cur;
    delta.delta_pct = 100.0 * (cur - prev) / prev;
    const double harmful = higher_is_better ? -delta.delta_pct
                                            : delta.delta_pct;
    delta.regression = harmful > threshold_pct;
    if (delta.regression) {
      std::ostringstream os;
      os << "bench regression: " << metric << " went "
         << format_double(prev) << " -> " << format_double(cur) << " ("
         << (delta.delta_pct >= 0 ? "+" : "")
         << format_double(delta.delta_pct) << "%)";
      report.findings.push_back(os.str());
    }
    report.bench_deltas.push_back(delta);
  };

  const auto scan_object = [&](const char* key, bool higher_is_better,
                               double threshold_pct) {
    const JsonValue* cur_obj = newest.find(key);
    const JsonValue* prev_obj = previous->find(key);
    if (cur_obj == nullptr || prev_obj == nullptr || !cur_obj->is_object() ||
        !prev_obj->is_object()) {
      return;
    }
    for (const auto& [name, cur_value] : cur_obj->as_object()) {
      if (!cur_value.is_number()) continue;
      const JsonValue* prev_value = prev_obj->find(name);
      if (prev_value == nullptr || !prev_value->is_number()) continue;
      const bool throughput =
          higher_is_better || name.find("throughput") != std::string::npos;
      add_delta(std::string(key) + "." + name, prev_value->as_number(),
                cur_value.as_number(), throughput,
                throughput ? thresholds.max_throughput_drop_pct
                           : threshold_pct);
    }
  };

  scan_object("mc_opamp_postlayout", false, thresholds.max_time_rise_pct);
  scan_object("stages", false, thresholds.max_time_rise_pct);
  scan_object("real_time_ns", false, thresholds.max_time_rise_pct);

  // Flat scalar timings used by BENCH_cv.json records.
  for (const char* key : {"old_ms", "new_1t_ms", "new_mt_ms"}) {
    const JsonValue* cur_value = newest.find(key);
    const JsonValue* prev_value = previous->find(key);
    if (cur_value != nullptr && prev_value != nullptr &&
        cur_value->is_number() && prev_value->is_number()) {
      add_delta(key, prev_value->as_number(), cur_value->as_number(), false,
                thresholds.max_time_rise_pct);
    }
  }
}

void append_markdown_table_header(std::ostringstream& out,
                                  std::initializer_list<const char*> cols) {
  out << "|";
  for (const char* c : cols) out << ' ' << c << " |";
  out << "\n|";
  for (std::size_t i = 0; i < cols.size(); ++i) out << " --- |";
  out << "\n";
}

}  // namespace

std::string RunReport::to_markdown() const {
  std::ostringstream out;
  out << "# bmf_doctor run report\n\n";

  out << "## Verdict\n\n";
  if (findings.empty()) {
    out << "No findings: numeric health looks clean.\n\n";
  } else {
    for (const std::string& finding : findings) {
      out << "- **" << finding << "**\n";
    }
    out << "\n";
  }

  if (!health_counters.empty()) {
    out << "## Numeric health\n\n";
    append_markdown_table_header(out, {"counter", "value"});
    for (const CounterReading& c : health_counters) {
      out << "| " << c.name << " | " << format_double(c.value) << " |\n";
    }
    out << "\n";
    if (warm_start_hit_rate) {
      out << "Warm-start hit rate: "
          << format_double(100.0 * *warm_start_hit_rate) << "%\n\n";
    }
    if (cv_disqualified_ratio) {
      out << "CV disqualified ratio: "
          << format_double(100.0 * *cv_disqualified_ratio) << "%\n\n";
    }
    if (mc_parallel_efficiency) {
      out << "Monte Carlo parallel efficiency: "
          << format_double(100.0 * *mc_parallel_efficiency) << "%\n\n";
    }
  }

  if (!histograms.empty()) {
    out << "## Latency quantiles\n\n";
    append_markdown_table_header(out,
                                 {"histogram", "count", "p50", "p95", "p99"});
    for (const HistogramQuantiles& h : histograms) {
      out << "| " << h.name << " | " << h.count << " | "
          << format_double(h.p50) << " | " << format_double(h.p95) << " | "
          << format_double(h.p99) << " |\n";
    }
    out << "\n";
  }

  if (log_summary) {
    const LogSummary& s = *log_summary;
    out << "## Log summary\n\n";
    out << "- events: " << s.total << " (debug " << s.debug << ", info "
        << s.info << ", warn " << s.warn << ", error " << s.error << ")\n";
    out << "- error notifications: " << s.error_notifications << "\n";
    out << "- flight-recorder dumps: " << s.flight_dumps << "\n";
    if (s.malformed_lines > 0) {
      out << "- malformed lines skipped: " << s.malformed_lines << "\n";
    }
    if (!s.recent_warnings.empty()) {
      out << "- recent warnings:\n";
      for (const std::string& w : s.recent_warnings) {
        out << "  - " << w << "\n";
      }
    }
    out << "\n";
  }

  if (fusion) {
    const FusionSummary& f = *fusion;
    out << "## Multi-population fusion\n\n";
    out << "- populations: " << f.populations << " (" << f.observed_populations
        << " observed)\n";
    out << "- pooled signal variance tau^2: "
        << format_double(f.signal_variance) << "\n";
    out << "- correlation shrinkage lambda: " << format_double(f.shrinkage)
        << ", mean |rho|: " << format_double(f.mean_abs_correlation) << "\n";
    if (!f.population_samples.empty()) {
      out << "\n";
      append_markdown_table_header(out, {"population", "samples"});
      for (const auto& [index, samples] : f.population_samples) {
        out << "| " << index << " | " << format_double(samples) << " |\n";
      }
    }
    out << "\n";
  }

  if (!serve_gauges.empty()) {
    out << "## Serve plane\n\n";
    append_markdown_table_header(out, {"gauge", "value"});
    for (const CounterReading& g : serve_gauges) {
      out << "| " << g.name << " | " << format_double(g.value) << " |\n";
    }
    out << "\n";
  }

  if (!cv_surface.empty()) {
    out << "## CV score surface\n\n";
    if (cv_best) {
      out << "Best: score " << format_double(cv_best->score) << " at kappa0="
          << format_double(cv_best->kappa0)
          << ", nu0=" << format_double(cv_best->nu0) << "\n\n";
    }
    append_markdown_table_header(out, {"kappa0", "nu0", "score"});
    constexpr std::size_t kMaxRows = 10;
    const std::size_t rows = std::min(cv_surface.size(), kMaxRows);
    for (std::size_t i = 0; i < rows; ++i) {
      const CvSurfacePoint& p = cv_surface[i];
      out << "| " << format_double(p.kappa0) << " | " << format_double(p.nu0)
          << " | " << format_double(p.score) << " |\n";
    }
    if (cv_surface.size() > kMaxRows) {
      out << "\n(" << cv_surface.size() - kMaxRows
          << " lower-scoring points omitted)\n";
    }
    out << "\n";
  }

  if (!bench_deltas.empty()) {
    out << "## Bench deltas (newest: " << bench_label << ")\n\n";
    append_markdown_table_header(
        out, {"metric", "previous", "current", "delta", "status"});
    for (const BenchDelta& d : bench_deltas) {
      out << "| " << d.metric << " | " << format_double(d.previous) << " | "
          << format_double(d.current) << " | "
          << (d.delta_pct >= 0 ? "+" : "") << format_double(d.delta_pct)
          << "% | " << (d.regression ? "REGRESSION" : "ok") << " |\n";
    }
    out << "\n";
  }

  return out.str();
}

std::string RunReport::to_json() const {
  std::ostringstream out;
  out << "{\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    out << (i ? ", " : "") << '"' << json_escape(findings[i]) << '"';
  }
  out << "],\n  \"health_counters\": {";
  for (std::size_t i = 0; i < health_counters.size(); ++i) {
    out << (i ? ", " : "") << '"' << json_escape(health_counters[i].name)
        << "\": " << json_number(health_counters[i].value);
  }
  out << "},\n  \"warm_start_hit_rate\": "
      << (warm_start_hit_rate ? json_number(*warm_start_hit_rate) : "null")
      << ",\n  \"cv_disqualified_ratio\": "
      << (cv_disqualified_ratio ? json_number(*cv_disqualified_ratio)
                                : "null")
      << ",\n  \"mc_parallel_efficiency\": "
      << (mc_parallel_efficiency ? json_number(*mc_parallel_efficiency)
                                 : "null");
  out << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramQuantiles& h = histograms[i];
    out << (i ? ", " : "") << '"' << json_escape(h.name)
        << "\": {\"count\": " << h.count
        << ", \"p50\": " << json_number(h.p50)
        << ", \"p95\": " << json_number(h.p95)
        << ", \"p99\": " << json_number(h.p99) << '}';
  }
  out << "}";
  if (log_summary) {
    const LogSummary& s = *log_summary;
    out << ",\n  \"log\": {\"total\": " << s.total << ", \"debug\": "
        << s.debug << ", \"info\": " << s.info << ", \"warn\": " << s.warn
        << ", \"error\": " << s.error
        << ", \"error_notifications\": " << s.error_notifications
        << ", \"flight_dumps\": " << s.flight_dumps
        << ", \"malformed_lines\": " << s.malformed_lines << '}';
  }
  if (fusion) {
    const FusionSummary& f = *fusion;
    out << ",\n  \"fusion\": {\"populations\": " << f.populations
        << ", \"observed_populations\": " << f.observed_populations
        << ", \"signal_variance\": " << json_number(f.signal_variance)
        << ", \"shrinkage\": " << json_number(f.shrinkage)
        << ", \"mean_abs_correlation\": "
        << json_number(f.mean_abs_correlation)
        << ", \"population_samples\": {";
    for (std::size_t i = 0; i < f.population_samples.size(); ++i) {
      out << (i ? ", " : "") << '"' << f.population_samples[i].first
          << "\": " << json_number(f.population_samples[i].second);
    }
    out << "}}";
  }
  if (!serve_gauges.empty()) {
    out << ",\n  \"serve_gauges\": {";
    for (std::size_t i = 0; i < serve_gauges.size(); ++i) {
      out << (i ? ", " : "") << '"' << json_escape(serve_gauges[i].name)
          << "\": " << json_number(serve_gauges[i].value);
    }
    out << "}";
  }
  if (cv_best) {
    out << ",\n  \"cv_best\": {\"kappa0\": " << json_number(cv_best->kappa0)
        << ", \"nu0\": " << json_number(cv_best->nu0)
        << ", \"score\": " << json_number(cv_best->score)
        << ", \"grid_points\": " << cv_surface.size() << '}';
  }
  out << ",\n  \"bench_deltas\": [";
  for (std::size_t i = 0; i < bench_deltas.size(); ++i) {
    const BenchDelta& d = bench_deltas[i];
    out << (i ? ",\n    " : "\n    ") << "{\"metric\": \""
        << json_escape(d.metric) << "\", \"previous\": "
        << json_number(d.previous) << ", \"current\": "
        << json_number(d.current) << ", \"delta_pct\": "
        << json_number(d.delta_pct) << ", \"regression\": "
        << (d.regression ? "true" : "false") << '}';
  }
  out << (bench_deltas.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

RunReport diagnose_run(const DoctorInputs& inputs,
                       const DoctorThresholds& thresholds) {
  RunReport report;
  if (!inputs.snapshot_json.empty()) {
    ingest_snapshot_value(parse_json(inputs.snapshot_json), "(inline)",
                          report, thresholds);
  } else if (!inputs.snapshot_path.empty()) {
    ingest_snapshot(inputs.snapshot_path, report, thresholds);
  }
  if (!inputs.log_path.empty()) {
    ingest_log(inputs.log_path, report);
  }
  if (!inputs.cv_surface_path.empty()) {
    ingest_cv_surface(inputs.cv_surface_path, report);
  }
  if (!inputs.bench_path.empty()) {
    ingest_bench(inputs.bench_path, report, thresholds);
  }
  return report;
}

}  // namespace bmfusion::core
