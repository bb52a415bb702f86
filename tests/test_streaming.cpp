// Streaming estimation contracts: the StatStream reduction grid, the
// sharded wire format (binary + JSON, incl. corrupt-frame rejection),
// streaming-vs-batch parity of the MomentEstimator surface on the paper's
// fig. 4 op-amp experiment, and the snapshot memo (hits bitwise equal to a
// cold computation, every mutator invalidates, failures are not kept).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "common/alloc_counter.hpp"
#include "common/contracts.hpp"
#include "core/bmf_estimator.hpp"
#include "core/estimator.hpp"
#include "core/mle.hpp"
#include "core/univariate_bmf.hpp"
#include "estimate_bits.hpp"
#include "stats/stat_stream.hpp"
#include "stats/stat_wire.hpp"
#include "stats/sufficient_stats.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion {
namespace {

using circuit::Dataset;
using circuit::DesignStage;
using circuit::MonteCarloConfig;
using circuit::ProcessModel;
using circuit::TwoStageOpAmp;
using core::BmfEstimator;
using core::EarlyStageKnowledge;
using core::EstimateResult;
using core::counter_total;
using core::expect_bitwise_equal;
using core::MleEstimator;
using core::estimate_mle;
using linalg::Matrix;
using linalg::Vector;
using stats::StatStream;
using stats::StatsShard;
using stats::SufficientStats;

// ------------------------------------------------------------- test data

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Deterministic, dimension-correlated sample matrix (values O(1)).
Matrix synthetic_samples(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Matrix out(rows, cols);
  std::uint64_t state = seed;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double u =
          static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
      out(r, c) = u - 0.5 + 0.1 * static_cast<double>(c);
    }
  }
  return out;
}

StatStream stream_of(const Matrix& samples, std::size_t begin,
                     std::size_t end) {
  StatStream stream(samples.cols());
  for (std::size_t r = begin; r < end; ++r) stream.add(samples.row(r));
  return stream;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

// ------------------------------------------------- StatStream reduction

TEST(StatStreamGrid, ShardSplitsReassembleBitwise) {
  // 8192 samples = 128 blocks; 1/2/8 contiguous shards put 128/64/16
  // blocks (all powers of two) in each shard, so the reassembled reduction
  // tree must match the single stream run for run and bit for bit.
  const std::size_t rows = 8192;
  const Matrix samples = synthetic_samples(rows, 3, 17);
  const StatStream single = stream_of(samples, 0, rows);
  const SufficientStats single_totals = single.totals();

  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    const std::size_t per_shard = rows / shards;
    StatStream merged = stream_of(samples, 0, per_shard);
    for (std::size_t s = 1; s < shards; ++s) {
      merged.merge(
          stream_of(samples, s * per_shard, (s + 1) * per_shard));
    }
    EXPECT_TRUE(merged == single) << shards << " shards";
    EXPECT_TRUE(merged.totals() == single_totals) << shards << " shards";
  }
}

TEST(StatStreamGrid, MisalignedSplitStillExactInSetSemantics) {
  const Matrix samples = synthetic_samples(1000, 2, 3);
  StatStream merged = stream_of(samples, 0, 333);   // cuts a block
  merged.merge(stream_of(samples, 333, 1000));
  const SufficientStats single = stream_of(samples, 0, 1000).totals();
  const SufficientStats totals = merged.totals();
  EXPECT_EQ(totals.count(), single.count());
  EXPECT_LE(max_abs_diff(totals.sum(), single.sum()), 1e-10);
  EXPECT_LE(max_abs_diff(totals.sum_outer(), single.sum_outer()), 1e-10);
}

TEST(StatStreamGrid, MatchesMonteCarloReduction) {
  // The stream's binary-counter carries must reproduce the Monte Carlo
  // driver's pairwise tree exactly — one shared reduction grid.
  const TwoStageOpAmp bench(DesignStage::kPostLayout, ProcessModel::cmos45());
  MonteCarloConfig cfg;
  cfg.sample_count = 600;  // not a multiple of 64: exercises the tail
  cfg.seed = 22;
  const SufficientStats direct = circuit::run_monte_carlo_stats(bench, cfg);
  const Dataset dataset = circuit::run_monte_carlo(bench, cfg);
  StatStream stream(dataset.metric_count());
  stream.add_rows(dataset.samples());
  EXPECT_TRUE(stream.totals() == direct);
}

// --------------------------------------------------------- shard merging

StatsShard shard_with(std::uint64_t id, const Matrix& samples,
                      std::size_t begin, std::size_t end) {
  StatsShard shard;
  shard.shard_id = id;
  shard.folds.push_back(stream_of(samples, begin, end));
  return shard;
}

TEST(ShardMerge, OrderInsensitive) {
  const Matrix samples = synthetic_samples(8192, 2, 29);
  const StatsShard a = shard_with(1, samples, 0, 4096);
  const StatsShard b = shard_with(2, samples, 4096, 6144);
  const StatsShard c = shard_with(3, samples, 6144, 8192);

  const StatsShard canonical = stats::merge_shards({a, b, c});
  for (const auto& permutation :
       std::vector<std::vector<StatsShard>>{{a, c, b},
                                            {b, a, c},
                                            {b, c, a},
                                            {c, a, b},
                                            {c, b, a}}) {
    const StatsShard merged = stats::merge_shards(permutation);
    EXPECT_EQ(merged.shard_id, canonical.shard_id);
    ASSERT_EQ(merged.folds.size(), canonical.folds.size());
    EXPECT_TRUE(merged.folds[0] == canonical.folds[0]);
  }
}

TEST(ShardMerge, AssociativeAcrossIntermediateCombiners) {
  const Matrix samples = synthetic_samples(8192, 2, 31);
  const StatsShard a = shard_with(1, samples, 0, 2048);
  const StatsShard b = shard_with(2, samples, 2048, 4096);
  const StatsShard c = shard_with(3, samples, 4096, 8192);

  const StatsShard flat = stats::merge_shards({a, b, c});
  const StatsShard left =
      stats::merge_shards({stats::merge_shards({a, b}), c});
  const StatsShard right =
      stats::merge_shards({a, stats::merge_shards({b, c})});
  EXPECT_TRUE(flat.folds[0] == left.folds[0]);
  EXPECT_TRUE(flat.folds[0] == right.folds[0]);
  // ... and the canonical combine reproduces the single-stream bits.
  EXPECT_TRUE(flat.folds[0] == stream_of(samples, 0, 8192));
}

TEST(ShardMerge, InconsistentShardsRejected) {
  const Matrix samples = synthetic_samples(128, 2, 5);
  StatsShard a = shard_with(1, samples, 0, 64);
  StatsShard two_folds = shard_with(2, samples, 64, 128);
  two_folds.folds.push_back(StatStream(2));
  EXPECT_THROW((void)stats::merge_shards({a, two_folds}), DataError);

  StatsShard tagged = shard_with(2, samples, 64, 128);
  tagged.estimator = "bmf";
  StatsShard other_tag = shard_with(3, samples, 0, 64);
  other_tag.estimator = "mle";
  EXPECT_THROW((void)stats::merge_shards({tagged, other_tag}), DataError);

  EXPECT_THROW((void)stats::merge_shards({}), ContractError);
}

TEST(ShardMerge, CrossPopulationMergeRejected) {
  // Shards from different populations summarize different conditions;
  // folding them together would silently mix corners.
  const Matrix samples = synthetic_samples(128, 2, 7);
  StatsShard tt = shard_with(1, samples, 0, 64);
  tt.population_id = 0;
  StatsShard ff = shard_with(2, samples, 64, 128);
  ff.population_id = 3;
  try {
    (void)stats::merge_shards({tt, ff});
    FAIL() << "cross-population merge must throw";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("population"), std::string::npos);
  }
  // Same population id merges fine and keeps the tag.
  ff.population_id = 0;
  EXPECT_EQ(stats::merge_shards({tt, ff}).population_id, 0u);
}

// ----------------------------------------------------------- wire format

StatsShard representative_shard() {
  const Matrix samples = synthetic_samples(200, 3, 41);
  StatsShard shard;
  shard.shard_id = 77;
  shard.population_id = 3;
  shard.estimator = "bmf";
  shard.nominal = Vector{1.5, -2.25, 0.875};
  shard.folds.push_back(stream_of(samples, 0, 130));  // partial block open
  StatStream second = stream_of(samples, 130, 190);
  second.absorb(SufficientStats::from_samples(
      synthetic_samples(10, 3, 43)));  // irregular run
  shard.folds.push_back(second);
  shard.folds.push_back(StatStream(3));  // empty fold
  return shard;
}

void expect_same_shard(const StatsShard& a, const StatsShard& b) {
  EXPECT_EQ(a.shard_id, b.shard_id);
  EXPECT_EQ(a.population_id, b.population_id);
  EXPECT_EQ(a.estimator, b.estimator);
  ASSERT_EQ(a.nominal.size(), b.nominal.size());
  EXPECT_EQ(max_abs_diff(a.nominal, b.nominal), 0.0);
  ASSERT_EQ(a.folds.size(), b.folds.size());
  for (std::size_t f = 0; f < a.folds.size(); ++f) {
    EXPECT_TRUE(a.folds[f] == b.folds[f]) << "fold " << f;
  }
}

TEST(WireFormat, BinaryRoundTripsExactly) {
  const StatsShard shard = representative_shard();
  const std::string bytes = stats::serialize_shard(shard);
  expect_same_shard(stats::parse_shard(bytes), shard);
}

TEST(WireFormat, JsonRoundTripsExactly) {
  const StatsShard shard = representative_shard();
  const std::string json = stats::shard_to_json(shard);
  expect_same_shard(stats::shard_from_json_text(json), shard);
}

TEST(WireFormat, EveryTruncationRejected) {
  const std::string bytes = stats::serialize_shard(representative_shard());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)stats::parse_shard(bytes.substr(0, len)), DataError)
        << "prefix length " << len;
  }
}

TEST(WireFormat, EveryByteFlipRejected) {
  // The header checks catch structural damage; the FNV-1a trailer catches
  // everything else, so no single-byte corruption can parse silently.
  const std::string bytes = stats::serialize_shard(representative_shard());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    EXPECT_THROW((void)stats::parse_shard(corrupt), DataError)
        << "byte " << pos;
  }
}

TEST(WireFormat, TrailingBytesRejected) {
  const std::string bytes = stats::serialize_shard(representative_shard());
  EXPECT_THROW((void)stats::parse_shard(bytes + "x"), DataError);
}

TEST(WireFormat, MalformedJsonRejected) {
  const StatsShard shard = representative_shard();
  std::string json = stats::shard_to_json(shard);
  EXPECT_THROW((void)stats::shard_from_json_text("{\"format\":\"nope\"}"),
               DataError);
  EXPECT_THROW((void)stats::shard_from_json_text("not json"), DataError);
  EXPECT_THROW((void)stats::shard_from_json_text("[]"), DataError);
  // Version bump must be refused, not misread.
  const std::string versioned = json;
  const std::size_t at = versioned.find("\"version\":2");
  ASSERT_NE(at, std::string::npos);
  std::string bumped = versioned;
  bumped.replace(at, 11, "\"version\":9");
  EXPECT_THROW((void)stats::shard_from_json_text(bumped), DataError);
}

TEST(WireFormat, VersionOneShardsStillParseAsPopulationZero) {
  // Pre-population producers keep working: a v1 record (no "population"
  // member) reads back with the default population id 0.
  const StatsShard shard = representative_shard();
  std::string json = stats::shard_to_json(shard);
  const std::size_t version_at = json.find("\"version\":2");
  ASSERT_NE(version_at, std::string::npos);
  json.replace(version_at, 11, "\"version\":1");
  const std::size_t population_at = json.find(",\"population\":3");
  ASSERT_NE(population_at, std::string::npos);
  json.erase(population_at, std::string(",\"population\":3").size());

  StatsShard expected = shard;
  expected.population_id = 0;
  expect_same_shard(stats::shard_from_json_text(json), expected);
}

// ------------------------------------------- streaming vs batch parity

/// Shared op-amp datasets (trimmed-down fig. 4 experiment).
class StreamingParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const TwoStageOpAmp early_bench(DesignStage::kSchematic,
                                    ProcessModel::cmos45());
    const TwoStageOpAmp late_bench(DesignStage::kPostLayout,
                                   ProcessModel::cmos45());
    MonteCarloConfig cfg;
    cfg.sample_count = 600;
    cfg.seed = 11;
    early_ = new Dataset(circuit::run_monte_carlo(early_bench, cfg));
    cfg.seed = 22;
    cfg.sample_count = 200;
    late_ = new Dataset(circuit::run_monte_carlo(late_bench, cfg));
    early_nominal_ = new Vector(early_bench.nominal_metrics());
    late_nominal_ = new Vector(late_bench.nominal_metrics());
  }
  static void TearDownTestSuite() {
    delete early_;
    delete late_;
    delete early_nominal_;
    delete late_nominal_;
    early_ = nullptr;
    late_ = nullptr;
    early_nominal_ = nullptr;
    late_nominal_ = nullptr;
  }

  static BmfEstimator make_bmf() {
    EarlyStageKnowledge early;
    early.moments = estimate_mle(early_->samples());
    early.nominal = *early_nominal_;
    core::BmfConfig config;
    config.cv.kappa_points = 6;
    config.cv.nu_points = 6;
    return BmfEstimator(early, config);
  }

  /// Largest |a-b| over mean and covariance, relative to the metric scale.
  static double relative_gap(const EstimateResult& a,
                             const EstimateResult& b) {
    double worst = 0.0;
    for (std::size_t j = 0; j < a.moments.mean.size(); ++j) {
      const double scale = std::max(1.0, std::abs(b.moments.mean[j]));
      worst = std::max(
          worst, std::abs(a.moments.mean[j] - b.moments.mean[j]) / scale);
    }
    for (std::size_t r = 0; r < a.moments.covariance.rows(); ++r) {
      for (std::size_t c = 0; c < a.moments.covariance.cols(); ++c) {
        const double scale =
            std::max(1.0, std::abs(b.moments.covariance(r, c)));
        worst = std::max(worst, std::abs(a.moments.covariance(r, c) -
                                         b.moments.covariance(r, c)) /
                                    scale);
      }
    }
    return worst;
  }

  static Dataset* early_;
  static Dataset* late_;
  static Vector* early_nominal_;
  static Vector* late_nominal_;
};

Dataset* StreamingParity::early_ = nullptr;
Dataset* StreamingParity::late_ = nullptr;
Vector* StreamingParity::early_nominal_ = nullptr;
Vector* StreamingParity::late_nominal_ = nullptr;

TEST_F(StreamingParity, MleSnapshotMatchesBatchFit) {
  // Normalized metrics (O(1), unit spread): the parity gap is pure
  // summation grouping, well under 1e-12.
  const core::ShiftScale transform = make_bmf().late_transform(*late_nominal_);
  const Matrix scaled = transform.apply(late_->samples());
  MleEstimator mle;
  const EstimateResult batch = mle.estimate(scaled);
  for (std::size_t r = 0; r < scaled.rows(); ++r) {
    mle.observe(scaled.row(r));
  }
  EXPECT_EQ(mle.observed_count(), late_->sample_count());
  const EstimateResult streamed = mle.snapshot();
  EXPECT_LE(relative_gap(streamed, batch), 1e-12);
}

TEST_F(StreamingParity, MleRawSpaceParityWithinConditioningBound) {
  // On raw op-amp metrics the batch fit is a two-pass centered covariance
  // while the stream is one-pass; their difference is amplified by the
  // metric conditioning (mean/sigma)^2, so the gate is looser here. The
  // tight 1e-12 contract belongs to the spaces estimators stream in.
  MleEstimator mle;
  const EstimateResult batch = mle.estimate(late_->samples());
  for (std::size_t r = 0; r < late_->sample_count(); ++r) {
    mle.observe(late_->samples().row(r));
  }
  EXPECT_LE(relative_gap(mle.snapshot(), batch), 1e-9);
}

TEST_F(StreamingParity, BmfSnapshotMatchesBatchFit) {
  BmfEstimator bmf = make_bmf();
  const EstimateResult batch =
      bmf.estimate(late_->samples(), *late_nominal_);
  bmf.set_nominal(*late_nominal_);
  for (std::size_t r = 0; r < late_->sample_count(); ++r) {
    bmf.observe(late_->samples().row(r));
  }
  const EstimateResult streamed = bmf.snapshot();
  // Identical fold split and hyper-parameter grid; only the summation
  // grouping inside each fold differs (sequential vs pairwise tree).
  EXPECT_EQ(streamed.kappa0, batch.kappa0);
  EXPECT_EQ(streamed.nu0, batch.nu0);
  EXPECT_LE(relative_gap(streamed, batch), 1e-12);
}

TEST_F(StreamingParity, UnivariateSnapshotMatchesBatchFit) {
  // The univariate baseline works in caller-normalized space (like its
  // batch entry point), so normalize the fig. 4 data first.
  const core::ShiftScale transform = make_bmf().late_transform(*late_nominal_);
  const Matrix scaled = transform.apply(late_->samples());
  const core::GaussianMoments early_scaled = estimate_mle(
      make_bmf().late_transform(*early_nominal_).apply(early_->samples()));
  core::UnivariateBmfEstimator uni(early_scaled);
  const EstimateResult batch = uni.estimate(scaled);
  for (std::size_t r = 0; r < scaled.rows(); ++r) {
    uni.observe(scaled.row(r));
  }
  const EstimateResult streamed = uni.snapshot();
  EXPECT_LE(relative_gap(streamed, batch), 1e-12);
}

TEST_F(StreamingParity, MergedEstimatorsMatchSingleStream) {
  // Two measurement sites each stream half the samples; merging the two
  // estimators must agree with one estimator that saw everything. The
  // split is a multiple of the fold count, so fold assignment lines up.
  BmfEstimator whole = make_bmf();
  whole.set_nominal(*late_nominal_);
  BmfEstimator site_a = make_bmf();
  site_a.set_nominal(*late_nominal_);
  BmfEstimator site_b = make_bmf();
  site_b.set_nominal(*late_nominal_);

  const std::size_t split = 100;
  for (std::size_t r = 0; r < late_->sample_count(); ++r) {
    whole.observe(late_->samples().row(r));
    (r < split ? site_a : site_b).observe(late_->samples().row(r));
  }
  site_a.merge(site_b);
  EXPECT_EQ(site_a.observed_count(), whole.observed_count());
  EXPECT_LE(relative_gap(site_a.snapshot(), whole.snapshot()), 1e-12);
}

TEST_F(StreamingParity, ExportAbsorbRoundTripMatches) {
  // Shard the stream over the wire (binary bytes) and absorb it into a
  // fresh estimator: same snapshot.
  BmfEstimator source = make_bmf();
  source.set_nominal(*late_nominal_);
  source.observe(late_->samples());
  const std::string bytes =
      stats::serialize_shard(source.export_shard(11));

  BmfEstimator sink = make_bmf();
  sink.absorb(stats::parse_shard(bytes));
  EXPECT_EQ(sink.observed_count(), source.observed_count());
  EXPECT_LE(relative_gap(sink.snapshot(), source.snapshot()), 0.0);
}

// ----------------------------------------------- streaming API contracts

TEST_F(StreamingParity, EstimatorsAcceptPrebuiltStats) {
  // O(1)-conditioned samples: an absorbed summary and the batch fit agree.
  const Matrix well_scaled = synthetic_samples(500, 3, 59);
  MleEstimator mle;
  mle.absorb(SufficientStats::from_samples(well_scaled));
  EXPECT_LE(relative_gap(mle.snapshot(), mle.estimate(well_scaled)), 1e-12);

  // A single absorbed summary cannot be folded, so snapshot() selects by
  // the closed-form evidence of the scaled summary.
  const SufficientStats stats =
      SufficientStats::from_samples(late_->samples());
  BmfEstimator streaming = make_bmf();
  streaming.set_nominal(*late_nominal_);
  streaming.absorb(stats);
  const EstimateResult absorbed = streaming.snapshot();
  const core::GaussianMoments& early = streaming.early().moments;
  const core::StageTransforms transforms =
      core::make_stage_transforms(*early_nominal_, *late_nominal_, early);
  const core::CrossValidationResult evidence =
      core::select_hyperparameters_evidence(transforms.early.apply(early),
                                            transforms.late.apply(stats),
                                            streaming.config().cv);
  EXPECT_EQ(absorbed.kappa0, evidence.kappa0);
  EXPECT_EQ(absorbed.nu0, evidence.nu0);
  EXPECT_EQ(absorbed.score, evidence.score);
  EXPECT_TRUE(std::isfinite(absorbed.moments.mean[0]));
}

TEST_F(StreamingParity, NominalImmutableOnceObserved) {
  BmfEstimator bmf = make_bmf();
  bmf.set_nominal(*late_nominal_);
  bmf.observe(late_->samples().row(0));
  EXPECT_THROW(bmf.set_nominal(*late_nominal_), ContractError);
  bmf.reset_stream();
  EXPECT_EQ(bmf.observed_count(), 0u);
  EXPECT_NO_THROW(bmf.set_nominal(*late_nominal_));
}

TEST_F(StreamingParity, MismatchedMergeAndAbsorbRejected) {
  MleEstimator mle;
  mle.observe(late_->samples().row(0));
  BmfEstimator bmf = make_bmf();
  bmf.set_nominal(*late_nominal_);
  EXPECT_THROW(bmf.merge(mle), ContractError);

  StatsShard shard = mle.export_shard(1);
  EXPECT_EQ(shard.estimator, "mle");
  EXPECT_THROW(bmf.absorb(shard), DataError);

  StatsShard wrong_folds = shard;
  wrong_folds.estimator.clear();
  MleEstimator sink;
  sink.observe(late_->samples().row(1));
  wrong_folds.folds.push_back(StatStream(shard.dimension()));
  EXPECT_THROW(sink.absorb(wrong_folds), DataError);
}

TEST(StreamingApi, DimensionMismatchedShardNamesBothDimensions) {
  // A shard of the wrong metric dimension must be refused before it touches
  // the stream, with a message naming the estimator's dimension, the
  // shard's dimension and the shard id.
  MleEstimator sink;
  sink.observe(synthetic_samples(8, 3, 61));

  MleEstimator other;
  other.observe(synthetic_samples(8, 2, 63));
  const StatsShard shard = other.export_shard(123);
  try {
    sink.absorb(shard);
    FAIL() << "dimension-mismatched absorb must throw";
  } catch (const DataError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("dimension"), std::string::npos) << message;
    EXPECT_NE(message.find('3'), std::string::npos) << message;
    EXPECT_NE(message.find('2'), std::string::npos) << message;
    EXPECT_NE(message.find("123"), std::string::npos) << message;
  }
  // The stream is untouched and still serves its own dimension.
  EXPECT_EQ(sink.observed_count(), 8u);
  EXPECT_EQ(sink.snapshot().moments.mean.size(), 3u);
}

TEST(StreamingApi, SnapshotOfEmptyStreamThrows) {
  MleEstimator mle;
  EXPECT_THROW((void)mle.snapshot(), ContractError);
}

TEST(StreamingApi, ObserveScreensNonFiniteSamples) {
  MleEstimator mle;
  Vector bad{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(mle.observe(bad), DataError);
  EXPECT_EQ(mle.observed_count(), 0u);
}

TEST(StreamingApi, RejectedBatchCommitsNoRow) {
  // A non-finite cell in row 2 rejects the whole batch: rows 0 and 1 must
  // not reach the stream, and the error names the offending row.
  MleEstimator mle;
  mle.observe(synthetic_samples(8, 2, 5));
  const std::string before = stats::serialize_shard(mle.export_shard(1));
  const std::uint64_t observed = counter_total("core.stream.observed_samples");
  const Matrix batch{{1.0, 2.0},
                     {3.0, 4.0},
                     {std::numeric_limits<double>::infinity(), 5.0}};
  try {
    mle.observe(batch);
    FAIL() << "a batch with a non-finite cell must throw";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.context().index, std::optional<std::size_t>(2));
  }
  EXPECT_EQ(mle.observed_count(), 8u);
  EXPECT_EQ(stats::serialize_shard(mle.export_shard(1)), before);
  EXPECT_EQ(counter_total("core.stream.observed_samples"), observed);
}

TEST(StreamingApi, BatchObserveAllocationsDoNotGrowWithRowCount) {
  // A batch's rows go through two buffers reused across the batch, so a
  // batch costs a fixed number of allocations. The only per-row cost left
  // is the fold streams' own: a fresh partial block whenever one fills
  // (StatStream::kBlockSamples samples per fold), at most three allocations
  // per filled block.
  EarlyStageKnowledge early;
  early.moments.mean = Vector{0.1, 0.2, 0.3, 0.4};
  early.moments.covariance = Matrix::identity(4);
  early.nominal = early.moments.mean;
  const core::BmfConfig bmf_config;
  struct Kind {
    const char* name;
    std::size_t folds;
    std::function<std::unique_ptr<core::MomentEstimator>()> make;
  };
  const Kind kinds[] = {
      {"mle", 1, [] { return std::make_unique<MleEstimator>(); }},
      {"bmf", bmf_config.cv.folds, [&] {
         auto bmf = std::make_unique<BmfEstimator>(early, bmf_config);
         bmf->set_nominal(early.nominal);
         return bmf;
       }},
  };
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.name);
    std::uint64_t allocations[2] = {0, 0};
    std::size_t filled_blocks[2] = {0, 0};
    const std::size_t rows[2] = {16, 64};
    for (std::size_t k = 0; k < 2; ++k) {
      const std::unique_ptr<core::MomentEstimator> est = kind.make();
      // One row per fold first, so the fold streams and the transform
      // cache exist before the measured batch.
      est->observe(synthetic_samples(kind.folds, 4, 3));
      const Matrix batch = synthetic_samples(rows[k], 4, 4);
      const std::uint64_t before = common::allocation_count();
      est->observe(batch);
      allocations[k] = common::allocation_count() - before;
      filled_blocks[k] = kind.folds * ((1 + rows[k] / kind.folds) /
                                       StatStream::kBlockSamples);
      EXPECT_EQ(est->observed_count(), kind.folds + rows[k]);
    }
    EXPECT_LE(allocations[1],
              allocations[0] + 3 * (filled_blocks[1] - filled_blocks[0]))
        << "16 rows: " << allocations[0] << " allocations, 64 rows: "
        << allocations[1];
  }
}

TEST(StreamingApi, BlockFillsReuseTheBuffersACarryRetires) {
  // 1 + 1024 rows into one mle fold stream fill 16 blocks. A carry adds in
  // place and hands the buffers it retires to the next open block, so only
  // the 8 fills that do not carry allocate one (sum vector + outer-sum
  // matrix); the rest is runs_ growth and the batch's two row buffers:
  // 2 + 8 * 2 + 4 = 22 with libstdc++ (67 when every fill allocated a
  // fresh block and every carry a fresh sum).
  MleEstimator mle;
  mle.observe(synthetic_samples(1, 4, 3));
  const Matrix batch = synthetic_samples(1024, 4, 4);
  const std::uint64_t before = common::allocation_count();
  mle.observe(batch);
  const std::uint64_t allocations = common::allocation_count() - before;
  EXPECT_LE(allocations, 22u);
}

// --------------------------------------------------------- snapshot memo

/// A repeated snapshot of an unchanged stream is answered from the memo:
/// bitwise equal to the first (cold) answer and to a cold snapshot of a
/// fresh estimator fed the same rows, and no further selection runs.
void expect_memo_hits_match_cold(
    const std::function<std::unique_ptr<core::MomentEstimator>()>& make,
    const Matrix& rows, std::uint64_t selections_per_snapshot) {
  const std::unique_ptr<core::MomentEstimator> warm = make();
  warm->observe(rows);
  const std::uint64_t selections = counter_total("core.cv.selections");
  const std::uint64_t calls = counter_total("core.stream.snapshots");
  const std::uint64_t hits = counter_total("core.stream.snapshot_hits");
  const EstimateResult first = warm->snapshot();
  std::vector<EstimateResult> repeats;
  for (int i = 0; i < 4; ++i) repeats.push_back(warm->snapshot());
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_total("core.cv.selections") - selections,
              selections_per_snapshot)
        << warm->name();
    EXPECT_EQ(counter_total("core.stream.snapshots") - calls, 5u);
    EXPECT_EQ(counter_total("core.stream.snapshot_hits") - hits, 4u);
  }

  const std::unique_ptr<core::MomentEstimator> cold = make();
  cold->observe(rows);
  const EstimateResult reference = cold->snapshot();
  SCOPED_TRACE(std::string(warm->name()));
  expect_bitwise_equal(first, reference);
  for (const EstimateResult& repeat : repeats) {
    expect_bitwise_equal(repeat, reference);
  }
}

TEST_F(StreamingParity, MemoHitsAreBitwiseEqualToColdSnapshots) {
  const core::ShiftScale transform = make_bmf().late_transform(*late_nominal_);
  const Matrix scaled = transform.apply(late_->samples());
  const core::GaussianMoments early_scaled = estimate_mle(
      make_bmf().late_transform(*early_nominal_).apply(early_->samples()));

  expect_memo_hits_match_cold(
      [] {
        auto bmf = std::make_unique<BmfEstimator>(make_bmf());
        bmf->set_nominal(*late_nominal_);
        return bmf;
      },
      late_->samples(), 1);
  expect_memo_hits_match_cold([] { return std::make_unique<MleEstimator>(); },
                              scaled, 0);
  // The univariate baseline runs one 1-D selection per metric.
  expect_memo_hits_match_cold(
      [&early_scaled] {
        return std::make_unique<core::UnivariateBmfEstimator>(early_scaled);
      },
      scaled, scaled.cols());
}

TEST_F(StreamingParity, EveryMutatorInvalidatesTheMemo) {
  // One stream walks through every mutator with a snapshot after each
  // step. Each snapshot must run a fresh selection (the memo was cleared,
  // even by steps that leave the stream as it was) and equal, bit for bit,
  // a cold snapshot of a fresh estimator replaying the same steps.
  const Matrix& rows = late_->samples();
  const auto slice = [&rows](std::size_t begin, std::size_t end) {
    Matrix part(end - begin, rows.cols());
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < rows.cols(); ++c) {
        part(r - begin, c) = rows(r, c);
      }
    }
    return part;
  };
  const auto fresh = [] {
    BmfEstimator bmf = make_bmf();
    bmf.set_nominal(*late_nominal_);
    return bmf;
  };
  BmfEstimator donor = fresh();
  donor.observe(slice(150, 180));
  const StatsShard shard = donor.export_shard(5);
  const StatsShard empty_shard = make_bmf().export_shard(6);
  ASSERT_EQ(empty_shard.count(), 0u);
  BmfEstimator site = fresh();
  site.observe(slice(190, 200));
  Matrix poisoned = slice(60, 64);
  poisoned(3, 1) = std::numeric_limits<double>::quiet_NaN();
  const std::size_t dim = rows.cols();

  struct Step {
    const char* name;
    std::function<void(BmfEstimator&)> apply;
  };
  const std::vector<Step> steps = {
      {"observe batch", [&](BmfEstimator& e) { e.observe(slice(0, 64)); }},
      {"observe row", [&](BmfEstimator& e) { e.observe(rows.row(64)); }},
      {"rejected batch",
       [&](BmfEstimator& e) { EXPECT_THROW(e.observe(poisoned), DataError); }},
      {"absorb zero-count stats",
       [&](BmfEstimator& e) { e.absorb(SufficientStats(dim)); }},
      {"absorb zero-count shard",
       [&](BmfEstimator& e) { e.absorb(empty_shard); }},
      {"absorb shard", [&](BmfEstimator& e) { e.absorb(shard); }},
      {"absorb stats",
       [&](BmfEstimator& e) {
         e.absorb(SufficientStats::from_samples(slice(180, 190)));
       }},
      {"merge", [&](BmfEstimator& e) { e.merge(site); }},
      {"reset, set_nominal, observe",
       [&](BmfEstimator& e) {
         e.reset_stream();
         EXPECT_THROW((void)e.snapshot(), ContractError);
         e.set_nominal(*late_nominal_);
         e.observe(slice(100, 140));
       }},
  };

  BmfEstimator memo = fresh();
  for (std::size_t k = 0; k < steps.size(); ++k) {
    SCOPED_TRACE(steps[k].name);
    steps[k].apply(memo);
    const std::uint64_t selections = counter_total("core.cv.selections");
    const EstimateResult got = memo.snapshot();
    if (telemetry::enabled()) {
      EXPECT_EQ(counter_total("core.cv.selections") - selections, 1u);
    }
    BmfEstimator replay = fresh();
    for (std::size_t j = 0; j <= k; ++j) steps[j].apply(replay);
    EXPECT_EQ(replay.observed_count(), memo.observed_count());
    expect_bitwise_equal(got, replay.snapshot());
  }
}

TEST(SnapshotMemo, ThrowingSnapshotThrowsAgain) {
  // Values whose outer products overflow to +inf make the snapshot throw a
  // typed numeric error. The failure is memoized like an answer: the next
  // call rethrows the same error without re-running the CV grid, and a
  // later healthy stream memoizes as usual.
  EarlyStageKnowledge early;
  early.moments.mean = Vector{0.0, 0.1};
  early.moments.covariance = Matrix::identity(2);
  early.nominal = early.moments.mean;
  core::BmfConfig config;
  config.apply_shift_scale = false;
  config.cv.kappa_points = 4;
  config.cv.nu_points = 4;
  BmfEstimator bmf(early, config);
  bmf.observe(synthetic_samples(64, 2, 71));
  Matrix huge(8, 2);
  for (std::size_t r = 0; r < huge.rows(); ++r) {
    huge(r, 0) = 1e160;
    huge(r, 1) = -1e160;
  }
  bmf.observe(huge);

  const std::uint64_t hits = counter_total("core.stream.snapshot_hits");
  std::string first_error;
  try {
    (void)bmf.snapshot();
    ADD_FAILURE() << "snapshot of an overflowed stream did not throw";
  } catch (const NumericError& e) {
    first_error = e.what();
  }
  const std::uint64_t grid_points = counter_total("core.cv.grid_points");
  try {
    (void)bmf.snapshot();
    ADD_FAILURE() << "memoized snapshot error was not rethrown";
  } catch (const NumericError& e) {
    EXPECT_EQ(std::string(e.what()), first_error);
  }
  EXPECT_EQ(counter_total("core.cv.grid_points"), grid_points);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_total("core.stream.snapshot_hits"), hits + 1);
  }

  bmf.reset_stream();
  bmf.observe(synthetic_samples(64, 2, 71));
  const EstimateResult first = bmf.snapshot();
  expect_bitwise_equal(bmf.snapshot(), first);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_total("core.stream.snapshot_hits"), hits + 2);
  }
}

}  // namespace
}  // namespace bmfusion
