// The three workloads and the metric names they all report.
//
// Every workload prints every end-to-end metric; each one maps the generic
// names onto its own primary and secondary operation (README.md has the
// table). Every traced run prints every per-layer metric; a layer that the
// workload's operations never call reports 0.
#pragma once

#include <map>
#include <string>

#include "report.hpp"

namespace bmfperf {

void run_paper_flow(const Options& options, Report& report);
void run_serve_ingest(const Options& options, Report& report);
void run_serve_query(const Options& options, Report& report);

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 9;

/// End-to-end metrics shared by every workload, in report order.
struct EndToEnd {
  double rate_per_s = 0.0;          ///< primary operations per second
  double latency_p50_us = 0.0;      ///< primary operation latency
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;      ///< run line only (see README.md)
  double aux_rate_per_s = 0.0;      ///< secondary operations per second
  double aux_latency_p50_us = 0.0;  ///< secondary operation latency
  double aux_latency_p90_us = 0.0;
  double aux_latency_p99_us = 0.0;  ///< run line only
  double cov_err_ratio = 0.0;       ///< BMF over MLE covariance error
  double setup_s = 0.0;             ///< median of the run's set-ups
  /// Peak RSS before the checks allocate their local estimators: when the
  /// measured rounds end (paper_flow), or after set-up and a fixed-work
  /// phase (serve workloads, whose logs and streams grow with every
  /// request).
  double peak_rss_mb = 0.0;
};

/// Adds the end-to-end metrics to `report`.
void emit_end_to_end(const EndToEnd& e2e, Report& report);

/// Adds every per-layer metric: the measured ones from `measured`, 0 for
/// layers this workload does not call.
void emit_layers(const std::map<std::string, double>& measured,
                 Report& report);

}  // namespace bmfperf
