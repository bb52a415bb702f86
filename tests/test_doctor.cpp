// Doctor / run-report engine contracts: the JSON value model and parser
// (common/json.hpp), histogram quantile estimation (telemetry), and
// diagnose_run() end to end over temp-file fixtures shaped exactly like the
// artifacts bmf_cli and scripts/bench.sh leave behind — including a
// synthetic degraded bench record that must be flagged as a regression.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "core/diagnose.hpp"
#include "telemetry/metrics.hpp"

namespace bmfusion::core {
namespace {

std::string write_temp_file(const std::string& name,
                            const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

bool any_finding_contains(const RunReport& report, const std::string& text) {
  for (const std::string& finding : report.findings) {
    if (finding.find(text) != std::string::npos) return true;
  }
  return false;
}

// ------------------------------------------------------------ JSON parser

TEST(JsonParse, ParsesScalarsArraysAndObjects) {
  const JsonValue doc = parse_json(
      R"({"a": 1.5, "b": [true, null, "x"], "c": {"n": -2e3}, "d": false})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.number_or("a", 0.0), 1.5);
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[1].is_null());
  EXPECT_EQ(b->as_array()[2].as_string(), "x");
  const JsonValue* c = doc.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->number_or("n", 0.0), -2000.0);
  const JsonValue* d = doc.find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->as_bool());
}

TEST(JsonParse, DecodesEscapesAndUnicode) {
  const JsonValue doc =
      parse_json(R"({"s": "a\"b\\c\nd", "u": "A\u00e9B", "t": "\u0041"})");
  EXPECT_EQ(doc.string_or("s", ""), "a\"b\\c\nd");
  EXPECT_EQ(doc.string_or("u", ""), "A\xc3\xa9"
                                    "B");
  EXPECT_EQ(doc.string_or("t", ""), "A");
}

TEST(JsonParse, PreservesObjectMemberOrder) {
  const JsonValue doc = parse_json(R"({"zz": 1, "aa": 2, "mm": 3})");
  const JsonValue::Object& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "zz");
  EXPECT_EQ(members[1].first, "aa");
  EXPECT_EQ(members[2].first, "mm");
}

TEST(JsonParse, MalformedInputThrowsDataError) {
  EXPECT_THROW((void)parse_json("{"), DataError);
  EXPECT_THROW((void)parse_json("[1, 2"), DataError);
  EXPECT_THROW((void)parse_json("{\"a\": }"), DataError);
  EXPECT_THROW((void)parse_json("true false"), DataError);  // trailing junk
  EXPECT_THROW((void)parse_json(""), DataError);
  EXPECT_THROW((void)parse_json("{\"a\": 1,}"), DataError);
}

TEST(JsonParse, KindMismatchAndMissingFileThrowDataError) {
  const JsonValue doc = parse_json(R"({"n": 4})");
  EXPECT_THROW((void)doc.as_array(), DataError);
  EXPECT_THROW((void)doc.find("n")->as_string(), DataError);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_EQ(doc.number_or("absent", -1.0), -1.0);
  EXPECT_EQ(doc.string_or("n", "fallback"), "fallback");
  EXPECT_THROW((void)parse_json_file("/nonexistent/bmf_doctor.json"),
               DataError);
}

// ------------------------------------------------------ histogram quantile

TEST(HistogramQuantile, InterpolatesInsideTheTargetBucket) {
  telemetry::Histogram::Snapshot snapshot;
  snapshot.bounds = {1.0, 2.0, 4.0};
  snapshot.counts = {10, 10, 10, 0};
  snapshot.count = 30;
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 1.0), 4.0);
  // First bucket interpolates from an implicit lower edge of zero.
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 0.1), 0.3);
}

TEST(HistogramQuantile, OverflowBucketClampsToTheLastFiniteBound) {
  telemetry::Histogram::Snapshot snapshot;
  snapshot.bounds = {1.0, 2.0, 4.0};
  snapshot.counts = {0, 0, 0, 5};
  snapshot.count = 5;
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 0.99), 4.0);
}

TEST(HistogramQuantile, EmptySnapshotReturnsZero) {
  telemetry::Histogram::Snapshot snapshot;
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 0.5), 0.0);
  snapshot.bounds = {1.0};
  snapshot.counts = {0, 0};
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(snapshot, 0.5), 0.0);
}

// -------------------------------------------------------------- diagnosis

TEST(Diagnose, SnapshotSectionExtractsCountersRatesAndFindings) {
  const std::string snapshot = write_temp_file(
      "bmf_doctor_snapshot.json", R"({
        "counters": {
          "circuit.dc.solves": 100,
          "circuit.dc.warm_start_hits": 90,
          "circuit.dc.warm_start_misses": 10,
          "circuit.dc.failures": 2,
          "core.cv.grid_points": 10,
          "core.cv.disqualified_points": 8,
          "core.loglik.fallback_ldlt": 1,
          "core.stream.snapshots": 12,
          "core.stream.snapshot_hits": 9
        },
        "histograms": {
          "circuit.mc.sample_us": {"count": 100, "p50": 10, "p95": 20, "p99": 30}
        }
      })");
  DoctorInputs inputs;
  inputs.snapshot_path = snapshot;
  const RunReport report = diagnose_run(inputs);

  ASSERT_TRUE(report.warm_start_hit_rate.has_value());
  EXPECT_DOUBLE_EQ(*report.warm_start_hit_rate, 0.9);
  ASSERT_TRUE(report.cv_disqualified_ratio.has_value());
  EXPECT_DOUBLE_EQ(*report.cv_disqualified_ratio, 0.8);

  bool saw_failures_counter = false;
  bool saw_snapshot_hits = false;
  for (const CounterReading& counter : report.health_counters) {
    if (counter.name == "circuit.dc.failures") {
      saw_failures_counter = true;
      EXPECT_DOUBLE_EQ(counter.value, 2.0);
    }
    if (counter.name == "core.stream.snapshot_hits") {
      saw_snapshot_hits = true;
      EXPECT_DOUBLE_EQ(counter.value, 9.0);
    }
  }
  EXPECT_TRUE(saw_failures_counter);
  EXPECT_TRUE(saw_snapshot_hits);

  EXPECT_TRUE(any_finding_contains(report, "dc solver failed to converge"));
  EXPECT_TRUE(any_finding_contains(report, "cv disqualified"));
  EXPECT_TRUE(any_finding_contains(report, "clamped-LDLT"));

  ASSERT_EQ(report.histograms.size(), 1u);
  EXPECT_EQ(report.histograms[0].name, "circuit.mc.sample_us");
  EXPECT_EQ(report.histograms[0].count, 100u);
  EXPECT_DOUBLE_EQ(report.histograms[0].p95, 20.0);

  const std::string markdown = report.to_markdown();
  EXPECT_NE(markdown.find("Warm-start hit rate: 90%"), std::string::npos);
  EXPECT_NE(markdown.find("## Numeric health"), std::string::npos);
  EXPECT_NE(markdown.find("circuit.mc.sample_us"), std::string::npos);

  // The JSON rendering must itself be valid JSON.
  const JsonValue round_trip = parse_json(report.to_json());
  EXPECT_EQ(round_trip.find("findings")->as_array().size(),
            report.findings.size());
}

TEST(Diagnose, FusionSectionSummarizesPopulationsAndShrinkage) {
  const std::string snapshot = write_temp_file(
      "bmf_doctor_fusion.json", R"({
        "counters": {
          "fusion.observed_samples": 960,
          "fusion.absorbed_shards": 4,
          "fusion.snapshots": 2
        },
        "gauges": {
          "fusion.populations": 3,
          "fusion.observed_populations": 2,
          "fusion.signal_variance": 0.0125,
          "fusion.shrinkage_lambda": 0.15,
          "fusion.mean_abs_correlation": 0.82,
          "fusion.population.0.samples": 640,
          "fusion.population.2.samples": 320
        }
      })");
  DoctorInputs inputs;
  inputs.snapshot_path = snapshot;
  const RunReport report = diagnose_run(inputs);

  ASSERT_TRUE(report.fusion.has_value());
  EXPECT_EQ(report.fusion->populations, 3u);
  EXPECT_EQ(report.fusion->observed_populations, 2u);
  EXPECT_DOUBLE_EQ(report.fusion->signal_variance, 0.0125);
  EXPECT_DOUBLE_EQ(report.fusion->shrinkage, 0.15);
  ASSERT_EQ(report.fusion->population_samples.size(), 2u);
  EXPECT_EQ(report.fusion->population_samples[0].first, 0u);
  EXPECT_DOUBLE_EQ(report.fusion->population_samples[0].second, 640.0);
  EXPECT_EQ(report.fusion->population_samples[1].first, 2u);

  // One population never produced usable samples — that is a finding.
  EXPECT_TRUE(any_finding_contains(report, "1 of 3 population(s)"));

  const std::string markdown = report.to_markdown();
  EXPECT_NE(markdown.find("## Multi-population fusion"), std::string::npos);
  EXPECT_NE(markdown.find("fusion.absorbed_shards"), std::string::npos);

  const JsonValue round_trip = parse_json(report.to_json());
  const JsonValue* fusion = round_trip.find("fusion");
  ASSERT_NE(fusion, nullptr);
  EXPECT_EQ(fusion->number_or("populations", 0.0), 3.0);
  const JsonValue* tallies = fusion->find("population_samples");
  ASSERT_NE(tallies, nullptr);
  EXPECT_EQ(tallies->number_or("2", 0.0), 320.0);

  // A snapshot with no fusion gauges stays fusion-free.
  const std::string plain = write_temp_file(
      "bmf_doctor_no_fusion.json", R"({"counters": {}})");
  inputs.snapshot_path = plain;
  EXPECT_FALSE(diagnose_run(inputs).fusion.has_value());
}

TEST(Diagnose, McParallelEfficiencyComputedFromCountersAndGauges) {
  // A 4-thread run on a 4-core host that kept the workers busy 90% of the
  // wall time: efficiency 0.9, no finding.
  const std::string healthy = write_temp_file(
      "bmf_doctor_mc_healthy.json", R"({
        "counters": {
          "circuit.mc.samples": 2000,
          "circuit.mc.elapsed_us": 1000000,
          "circuit.mc.busy_us": 3600000
        },
        "gauges": {
          "circuit.mc.threads": 4,
          "circuit.mc.host_cores": 4
        }
      })");
  DoctorInputs inputs;
  inputs.snapshot_path = healthy;
  RunReport report = diagnose_run(inputs);
  ASSERT_TRUE(report.mc_parallel_efficiency.has_value());
  EXPECT_DOUBLE_EQ(*report.mc_parallel_efficiency, 0.9);
  EXPECT_FALSE(any_finding_contains(report, "parallel efficiency"));
  EXPECT_NE(report.to_markdown().find("Monte Carlo parallel efficiency: 90%"),
            std::string::npos);
  const JsonValue round_trip = parse_json(report.to_json());
  EXPECT_DOUBLE_EQ(round_trip.number_or("mc_parallel_efficiency", 0.0), 0.9);

  // Same wall time but the workers were mostly idle: 0.3 efficiency trips
  // the 0.6 default floor.
  const std::string stalled = write_temp_file(
      "bmf_doctor_mc_stalled.json", R"({
        "counters": {
          "circuit.mc.elapsed_us": 1000000,
          "circuit.mc.busy_us": 1200000
        },
        "gauges": {
          "circuit.mc.threads": 4,
          "circuit.mc.host_cores": 4
        }
      })");
  inputs.snapshot_path = stalled;
  report = diagnose_run(inputs);
  ASSERT_TRUE(report.mc_parallel_efficiency.has_value());
  EXPECT_DOUBLE_EQ(*report.mc_parallel_efficiency, 0.3);
  EXPECT_TRUE(any_finding_contains(report, "parallel efficiency"));

  // Oversubscribed: 8 threads timesharing a 2-core host still report near
  // full per-worker wall-time occupancy, so a well-balanced run is not
  // blamed for the hardware (speedup gating is the bench sentinel's job).
  const std::string oversub = write_temp_file(
      "bmf_doctor_mc_oversub.json", R"({
        "counters": {
          "circuit.mc.elapsed_us": 1000000,
          "circuit.mc.busy_us": 7200000
        },
        "gauges": {
          "circuit.mc.threads": 8,
          "circuit.mc.host_cores": 2
        }
      })");
  inputs.snapshot_path = oversub;
  report = diagnose_run(inputs);
  ASSERT_TRUE(report.mc_parallel_efficiency.has_value());
  EXPECT_DOUBLE_EQ(*report.mc_parallel_efficiency, 0.9);
  EXPECT_FALSE(any_finding_contains(report, "parallel efficiency"));

  // Single-threaded runs carry no pool signal; the metric stays absent.
  const std::string single = write_temp_file(
      "bmf_doctor_mc_single.json", R"({
        "counters": {
          "circuit.mc.elapsed_us": 1000000,
          "circuit.mc.busy_us": 990000
        },
        "gauges": {
          "circuit.mc.threads": 1,
          "circuit.mc.host_cores": 4
        }
      })");
  inputs.snapshot_path = single;
  report = diagnose_run(inputs);
  EXPECT_FALSE(report.mc_parallel_efficiency.has_value());
  EXPECT_TRUE(report.findings.empty());
}

TEST(Diagnose, LogSectionTalliesLevelsDumpsAndMalformedLines) {
  const std::string log = write_temp_file(
      "bmf_doctor_log.jsonl",
      "{\"t_ns\": 1, \"level\": \"debug\", \"msg\": \"dc warm start diverged\","
      " \"fields\": {}}\n"
      "{\"t_ns\": 2, \"level\": \"info\", \"msg\": \"error raised\","
      " \"fields\": {\"kind\": \"NumericError\"}}\n"
      "{\"t_ns\": 3, \"level\": \"warn\", \"msg\": \"cholesky jitter"
      " escalation exhausted\", \"fields\": {}}\n"
      "{\"t_ns\": 4, \"level\": \"error\", \"msg\": \"dc solver exhausted"
      " every strategy\", \"fields\": {}}\n"
      "this line is not JSON\n"
      "{\"flight_recorder_dump\": {\"reason\": \"NumericError\","
      " \"detail\": \"x\", \"events\": 3}}\n");
  DoctorInputs inputs;
  inputs.log_path = log;
  const RunReport report = diagnose_run(inputs);

  ASSERT_TRUE(report.log_summary.has_value());
  const LogSummary& summary = *report.log_summary;
  EXPECT_EQ(summary.total, 4u);
  EXPECT_EQ(summary.debug, 1u);
  EXPECT_EQ(summary.info, 1u);
  EXPECT_EQ(summary.warn, 1u);
  EXPECT_EQ(summary.error, 1u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_EQ(summary.error_notifications, 1u);
  EXPECT_EQ(summary.flight_dumps, 1u);
  ASSERT_EQ(summary.recent_warnings.size(), 2u);
  EXPECT_EQ(summary.recent_warnings[0],
            "warn: cholesky jitter escalation exhausted");
  EXPECT_TRUE(any_finding_contains(report, "error-level log event"));
}

TEST(Diagnose, CvSurfaceSortsByScoreAndReportsTheOptimum) {
  const std::string surface = write_temp_file("bmf_doctor_surface.csv",
                                              "kappa0,nu0,score\n"
                                              "1,10,-5\n"
                                              "2,20,-1\n"
                                              "4,40,-3\n");
  DoctorInputs inputs;
  inputs.cv_surface_path = surface;
  const RunReport report = diagnose_run(inputs);

  ASSERT_EQ(report.cv_surface.size(), 3u);
  EXPECT_DOUBLE_EQ(report.cv_surface[0].score, -1.0);
  EXPECT_DOUBLE_EQ(report.cv_surface[2].score, -5.0);
  ASSERT_TRUE(report.cv_best.has_value());
  EXPECT_DOUBLE_EQ(report.cv_best->kappa0, 2.0);
  EXPECT_DOUBLE_EQ(report.cv_best->nu0, 20.0);
  EXPECT_TRUE(report.findings.empty());

  const std::string narrow = write_temp_file("bmf_doctor_narrow.csv",
                                             "kappa0,nu0\n1,2\n");
  inputs.cv_surface_path = narrow;
  EXPECT_THROW((void)diagnose_run(inputs), DataError);
}

TEST(Diagnose, MissingInputFileThrowsDataErrorWithThePath) {
  DoctorInputs inputs;
  inputs.snapshot_path = "/nonexistent/bmf_snapshot.json";
  try {
    (void)diagnose_run(inputs);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("bmf_snapshot.json"),
              std::string::npos);
  }
}

TEST(Diagnose, EmptyInputsProduceACleanEmptyReport) {
  const RunReport report = diagnose_run(DoctorInputs{});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_FALSE(report.log_summary.has_value());
  EXPECT_NE(report.to_markdown().find("No findings"), std::string::npos);
  const JsonValue round_trip = parse_json(report.to_json());
  EXPECT_TRUE(round_trip.find("findings")->as_array().empty());
}

// ----------------------------------------------------------- bench deltas

TEST(DoctorBench, DegradedRecordIsFlaggedAsARegression) {
  const std::string history = write_temp_file(
      "bmf_doctor_bench_degraded.json", R"([
        {"bench": "micro_circuit", "label": "base",
         "stages": {"dc_solve_us": 40.0},
         "mc_opamp_postlayout": {"samples": 2000, "seconds": 0.22,
                                 "throughput_sps": 9000.0}},
        {"bench": "micro_circuit", "label": "slow",
         "stages": {"dc_solve_us": 80.0},
         "mc_opamp_postlayout": {"samples": 2000, "seconds": 0.40,
                                 "throughput_sps": 5000.0}}
      ])");
  DoctorInputs inputs;
  inputs.bench_path = history;
  const RunReport report = diagnose_run(inputs);

  EXPECT_EQ(report.bench_label, "slow");
  bool throughput_flagged = false;
  bool stage_flagged = false;
  for (const BenchDelta& delta : report.bench_deltas) {
    if (delta.metric == "mc_opamp_postlayout.throughput_sps") {
      throughput_flagged = delta.regression;
      EXPECT_NEAR(delta.delta_pct, -44.44, 0.01);
    }
    if (delta.metric == "stages.dc_solve_us") {
      stage_flagged = delta.regression;
      EXPECT_NEAR(delta.delta_pct, 100.0, 1e-9);
    }
  }
  EXPECT_TRUE(throughput_flagged);
  EXPECT_TRUE(stage_flagged);
  EXPECT_TRUE(any_finding_contains(report, "bench regression"));
  EXPECT_NE(report.to_markdown().find("REGRESSION"), std::string::npos);
}

TEST(DoctorBench, ImprovedRecordStaysClean) {
  const std::string history = write_temp_file(
      "bmf_doctor_bench_improved.json", R"([
        {"bench": "micro_circuit", "label": "base",
         "stages": {"dc_solve_us": 40.0},
         "mc_opamp_postlayout": {"samples": 2000, "seconds": 0.22,
                                 "throughput_sps": 9000.0}},
        {"bench": "micro_circuit", "label": "fast",
         "stages": {"dc_solve_us": 38.0},
         "mc_opamp_postlayout": {"samples": 2000, "seconds": 0.21,
                                 "throughput_sps": 9500.0}}
      ])");
  DoctorInputs inputs;
  inputs.bench_path = history;
  const RunReport report = diagnose_run(inputs);

  EXPECT_FALSE(report.bench_deltas.empty());
  for (const BenchDelta& delta : report.bench_deltas) {
    EXPECT_FALSE(delta.regression) << delta.metric;
  }
  EXPECT_TRUE(report.findings.empty());
}

TEST(DoctorBench, MixedHistoryComparesLikeWithLike) {
  // micro_cv's newest record must be compared against the previous micro_cv
  // record, skipping the interleaved micro_circuit one.
  const std::string history = write_temp_file(
      "bmf_doctor_bench_mixed.json", R"([
        {"bench": "micro_cv", "label": "cv-old", "old_ms": 100.0},
        {"bench": "micro_circuit", "label": "circuit",
         "stages": {"dc_solve_us": 40.0}},
        {"bench": "micro_cv", "label": "cv-new", "old_ms": 105.0}
      ])");
  DoctorInputs inputs;
  inputs.bench_path = history;
  const RunReport report = diagnose_run(inputs);

  ASSERT_EQ(report.bench_deltas.size(), 1u);
  EXPECT_EQ(report.bench_deltas[0].metric, "old_ms");
  EXPECT_DOUBLE_EQ(report.bench_deltas[0].previous, 100.0);
  EXPECT_DOUBLE_EQ(report.bench_deltas[0].current, 105.0);
  EXPECT_FALSE(report.bench_deltas[0].regression);  // +5% <= 10% budget
}

TEST(DoctorBench, TighterThresholdsFlagSmallerDrifts) {
  const std::string history = write_temp_file(
      "bmf_doctor_bench_thresholds.json", R"([
        {"bench": "micro_cv", "label": "a", "old_ms": 100.0},
        {"bench": "micro_cv", "label": "b", "old_ms": 105.0}
      ])");
  DoctorInputs inputs;
  inputs.bench_path = history;
  DoctorThresholds thresholds;
  thresholds.max_time_rise_pct = 2.0;
  const RunReport report = diagnose_run(inputs, thresholds);
  ASSERT_EQ(report.bench_deltas.size(), 1u);
  EXPECT_TRUE(report.bench_deltas[0].regression);
  EXPECT_TRUE(any_finding_contains(report, "bench regression"));
}

}  // namespace
}  // namespace bmfusion::core
