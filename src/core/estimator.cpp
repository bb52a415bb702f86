#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <sstream>

#include "common/contracts.hpp"
#include "core/mle.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::core {

namespace {

/// API-boundary data screen shared by every estimator: a NaN/Inf cell in the
/// samples (or nominal) is a data problem, and is reported here with its
/// exact position instead of surfacing later as a numeric failure deep in
/// the fusion stack.
void require_finite_inputs(const linalg::Matrix& samples,
                           const linalg::Vector& nominal,
                           std::string_view estimator) {
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    for (std::size_t c = 0; c < samples.cols(); ++c) {
      const double cell = samples(r, c);
      if (!std::isfinite(cell)) {
        std::ostringstream os;
        os << "estimator '" << estimator << "': non-finite sample cell at row "
           << r << ", column " << c;
        throw DataError(os.str(), ErrorContext{}
                                      .with_operation(std::string(estimator))
                                      .with_dimension(samples.cols())
                                      .with_sample_count(samples.rows())
                                      .with_index(r)
                                      .with_value(cell));
      }
    }
  }
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    if (!std::isfinite(nominal[i])) {
      std::ostringstream os;
      os << "estimator '" << estimator
         << "': non-finite nominal entry at dimension " << i;
      throw DataError(os.str(), ErrorContext{}
                                    .with_operation(std::string(estimator))
                                    .with_dimension(nominal.size())
                                    .with_index(i)
                                    .with_value(nominal[i]));
    }
  }
}

/// The same screen for one sample vector (the observe hot path).
void require_finite_sample(const linalg::Vector& sample,
                           std::string_view estimator) {
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (!std::isfinite(sample[i])) {
      std::ostringstream os;
      os << "estimator '" << estimator
         << "': non-finite observed sample entry at dimension " << i;
      throw DataError(os.str(), ErrorContext{}
                                    .with_operation(std::string(estimator))
                                    .with_dimension(sample.size())
                                    .with_index(i)
                                    .with_value(sample[i]));
    }
  }
}

/// And for pre-summarized statistics (the absorb path): a non-finite sum or
/// outer-sum entry poisons every later estimate, so reject it at the door.
void require_finite_stats(const SufficientStats& stats,
                          std::string_view estimator) {
  for (std::size_t r = 0; r < stats.dimension(); ++r) {
    if (!std::isfinite(stats.sum()[r])) {
      std::ostringstream os;
      os << "estimator '" << estimator
         << "': non-finite sufficient-stats sum at dimension " << r;
      throw DataError(os.str(), ErrorContext{}
                                    .with_operation(std::string(estimator))
                                    .with_dimension(stats.dimension())
                                    .with_sample_count(stats.count())
                                    .with_index(r)
                                    .with_value(stats.sum()[r]));
    }
    for (std::size_t c = 0; c < stats.dimension(); ++c) {
      const double cell = stats.sum_outer()(r, c);
      if (!std::isfinite(cell)) {
        std::ostringstream os;
        os << "estimator '" << estimator
           << "': non-finite sufficient-stats outer sum at (" << r << ", "
           << c << ")";
        throw DataError(os.str(), ErrorContext{}
                                      .with_operation(std::string(estimator))
                                      .with_dimension(stats.dimension())
                                      .with_sample_count(stats.count())
                                      .with_index(r)
                                      .with_value(cell));
      }
    }
  }
}

/// One SufficientStats per fold stream, empty folds dimension-matched with
/// count 0: the do_snapshot input, built the same way for a stream and a
/// batch.
std::vector<SufficientStats> fold_totals(
    const std::vector<stats::StatStream>& streams) {
  const std::size_t dim = streams.front().dimension();
  std::vector<SufficientStats> totals;
  totals.reserve(streams.size());
  for (const stats::StatStream& stream : streams) {
    totals.push_back(stream.empty() ? SufficientStats(dim) : stream.totals());
  }
  return totals;
}

}  // namespace

// --- Batch -----------------------------------------------------------------

EstimateResult MomentEstimator::estimate(const linalg::Matrix& samples,
                                         const linalg::Vector& nominal) const {
  BMFUSION_REQUIRE(samples.rows() >= 1 && samples.cols() >= 1,
                   "moment estimation needs a non-empty sample matrix");
  BMFUSION_REQUIRE(nominal.size() == 0 || nominal.size() == samples.cols(),
                   "nominal must be empty or match the sample dimension");
  require_finite_inputs(samples, nominal, name());
  return do_estimate(samples, nominal);
}

EstimateResult MomentEstimator::estimate(const linalg::Matrix& samples) const {
  return estimate(samples, linalg::Vector());
}

EstimateResult MomentEstimator::do_estimate(
    const linalg::Matrix& samples, const linalg::Vector& nominal) const {
  const std::size_t folds = stream_folds();
  BMFUSION_REQUIRE(folds == 1 || samples.rows() >= 2,
                   "a cross-validating estimator needs >= 2 samples");
  std::vector<stats::StatStream> streams(folds,
                                         stats::StatStream(samples.cols()));
  deal_rows(samples, nominal, streams, 0);
  return do_snapshot(fold_totals(streams), nominal);
}

// --- Streaming ---------------------------------------------------------------

void MomentEstimator::set_nominal(const linalg::Vector& nominal) {
  forget_snapshot();
  BMFUSION_REQUIRE(observed_ == 0,
                   "the nominal point is fixed once samples were observed; "
                   "reset_stream() first");
  BMFUSION_REQUIRE(nominal.size() >= 1,
                   "set_nominal needs a non-empty nominal vector");
  require_finite_inputs(linalg::Matrix(), nominal, name());
  nominal_ = nominal;
  on_nominal_changed();
}

void MomentEstimator::ensure_streams(std::size_t dimension) {
  BMFUSION_REQUIRE(nominal_.size() == 0 || nominal_.size() == dimension,
                   "observed sample dimension must match the nominal point");
  if (streams_.empty()) {
    const std::size_t folds = stream_folds();
    BMFUSION_REQUIRE(folds >= 1, "estimator stream needs >= 1 fold");
    streams_.assign(folds, stats::StatStream(dimension));
    return;
  }
  BMFUSION_REQUIRE(streams_.front().dimension() == dimension,
                   "observed sample dimension must match the stream");
}

void MomentEstimator::deal_rows(const linalg::Matrix& samples,
                                const linalg::Vector& nominal,
                                std::vector<stats::StatStream>& streams,
                                std::size_t first) const {
  const std::size_t dim = samples.cols();
  linalg::Vector row(dim);
  linalg::Vector mapped;
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    std::copy_n(samples.row_data(i), dim, row.data());
    stream_transform(row, nominal, mapped);
    streams[(first + i) % streams.size()].add(mapped);
  }
}

void MomentEstimator::observe(const linalg::Vector& sample) {
  forget_snapshot();
  BMFUSION_REQUIRE(sample.size() >= 1, "observe needs a non-empty sample");
  require_finite_sample(sample, name());
  ensure_streams(sample.size());
  linalg::Vector mapped;
  stream_transform(sample, nominal_, mapped);
  streams_[observed_ % streams_.size()].add(mapped);
  ++observed_;
  BMF_COUNTER_ADD("core.stream.observed_samples", 1);
}

void MomentEstimator::observe(const linalg::Matrix& samples) {
  forget_snapshot();
  BMFUSION_REQUIRE(samples.cols() >= 1,
                   "observe needs samples with dimension >= 1");
  // Screen the whole batch before the first row lands: a non-finite cell in
  // row k rejects the batch whole instead of leaving rows 0..k-1 committed.
  require_finite_inputs(samples, linalg::Vector(), name());
  if (samples.rows() == 0) return;
  ensure_streams(samples.cols());
  deal_rows(samples, nominal_, streams_, observed_);
  observed_ += samples.rows();
  // One counter update per batch, not per row: the serve observe hot path
  // pushes 10k+ batches/s, where per-row updates are measurable.
  BMF_COUNTER_ADD("core.stream.observed_samples", samples.rows());
}

void MomentEstimator::absorb(const SufficientStats& stats) {
  forget_snapshot();
  if (stats.count() == 0) return;
  BMFUSION_REQUIRE(stats.dimension() >= 1,
                   "absorb needs statistics with dimension >= 1");
  require_finite_stats(stats, name());
  ensure_streams(stats.dimension());
  streams_[absorb_cursor_ % streams_.size()].absorb(
      stream_transform_stats(stats, nominal_));
  ++absorb_cursor_;
  observed_ += stats.count();
  BMF_COUNTER_ADD("core.stream.absorbed_samples", stats.count());
}

void MomentEstimator::absorb(const stats::StatsShard& shard) {
  forget_snapshot();
  if (!shard.estimator.empty() && shard.estimator != name()) {
    throw DataError(
        "stats shard estimator tag does not match this estimator",
        ErrorContext{}
            .with_operation(std::string(name()))
            .with_detail("shard tagged '" + shard.estimator + "'"));
  }
  if (shard.nominal.size() != 0) {
    if (nominal_.size() == 0) {
      if (observed_ == 0) {
        set_nominal(shard.nominal);
      }
    } else if (!(shard.nominal == nominal_)) {
      throw DataError("stats shard nominal does not match this estimator's",
                      ErrorContext{}
                          .with_operation(std::string(name()))
                          .with_dimension(nominal_.size()));
    }
  }
  const std::size_t dim = shard.dimension();
  if (dim == 0) return;  // empty shard: nothing to merge
  if (!streams_.empty() && streams_.front().dimension() != dim) {
    throw DataError(
        "stats shard dimension does not match this estimator",
        ErrorContext{}
            .with_operation(std::string(name()))
            .with_dimension(streams_.front().dimension())
            .with_detail("shard " + std::to_string(shard.shard_id) +
                         " carries dimension " + std::to_string(dim)));
  }
  ensure_streams(dim);
  if (shard.folds.size() != streams_.size()) {
    throw DataError("stats shard fold count does not match this estimator",
                    ErrorContext{}
                        .with_operation(std::string(name()))
                        .with_detail(std::to_string(streams_.size()) +
                                     " folds here, shard has " +
                                     std::to_string(shard.folds.size())));
  }
  std::size_t added = 0;
  for (std::size_t f = 0; f < streams_.size(); ++f) {
    streams_[f].merge(shard.folds[f]);
    added += shard.folds[f].count();
  }
  observed_ += added;
  BMF_COUNTER_ADD("core.stream.absorbed_samples", added);
}

void MomentEstimator::merge(const MomentEstimator& other) {
  forget_snapshot();
  BMFUSION_REQUIRE(name() == other.name(),
                   "merge needs two estimators of the same strategy");
  BMFUSION_REQUIRE(
      nominal_.size() == other.nominal_.size() &&
          (nominal_.size() == 0 || nominal_ == other.nominal_),
      "merge needs both estimators to agree on the nominal point");
  if (other.observed_ == 0) return;
  ensure_streams(other.streams_.front().dimension());
  BMFUSION_REQUIRE(streams_.size() == other.streams_.size(),
                   "merge needs matching fold counts");
  for (std::size_t f = 0; f < streams_.size(); ++f) {
    streams_[f].merge(other.streams_[f]);
  }
  observed_ += other.observed_;
}

EstimateResult MomentEstimator::snapshot() const {
  BMFUSION_REQUIRE(observed_ >= 1,
                   "snapshot needs at least one observed sample");
  BMF_COUNTER_ADD("core.stream.snapshots", 1);
  // Checked before the fold totals are built: a hit skips that fold too.
  if (snapshot_memo_ || snapshot_error_) {
    BMF_COUNTER_ADD("core.stream.snapshot_hits", 1);
    if (snapshot_error_) std::rethrow_exception(snapshot_error_);
    return *snapshot_memo_;
  }
  const std::vector<SufficientStats> totals = fold_totals(streams_);
  BMF_SPAN("estimator_snapshot");
  try {
    snapshot_memo_ = do_snapshot(totals, nominal_);
  } catch (const std::bad_alloc&) {
    throw;
  } catch (...) {
    // The outcome is a function of the stream state, so an unchanged
    // stream would fail the same way: keep the error like an answer.
    snapshot_error_ = std::current_exception();
    throw;
  }
  return *snapshot_memo_;
}

void MomentEstimator::forget_snapshot() {
  snapshot_memo_.reset();
  snapshot_error_ = nullptr;
}

stats::StatsShard MomentEstimator::export_shard(std::uint64_t shard_id) const {
  stats::StatsShard shard;
  shard.shard_id = shard_id;
  shard.estimator = std::string(name());
  shard.nominal = nominal_;
  shard.folds = streams_.empty()
                    ? std::vector<stats::StatStream>(stream_folds())
                    : streams_;
  return shard;
}

void MomentEstimator::reset_stream() {
  forget_snapshot();
  streams_.clear();
  observed_ = 0;
  absorb_cursor_ = 0;
}

EstimateResult MomentEstimator::do_snapshot(
    const std::vector<SufficientStats>& fold_totals,
    const linalg::Vector& nominal) const {
  (void)fold_totals;
  (void)nominal;
  throw ContractError(std::string("estimator '") + std::string(name()) +
                      "' does not support streaming estimation");
}

void MomentEstimator::stream_transform(const linalg::Vector& sample,
                                       const linalg::Vector& nominal,
                                       linalg::Vector& out) const {
  (void)nominal;
  out = sample;
}

SufficientStats MomentEstimator::stream_transform_stats(
    const SufficientStats& stats, const linalg::Vector& nominal) const {
  (void)nominal;
  return stats;
}

// --- MLE ---------------------------------------------------------------------

EstimateResult MleEstimator::do_estimate(const linalg::Matrix& samples,
                                         const linalg::Vector& nominal) const {
  (void)nominal;  // the MLE neither shifts nor scales
  EstimateResult result;
  result.moments = estimate_mle(samples);
  result.scaled_moments = result.moments;
  return result;
}

EstimateResult MleEstimator::do_snapshot(
    const std::vector<SufficientStats>& fold_totals,
    const linalg::Vector& nominal) const {
  // Single-fold stream (stream_folds() == 1), but stay robust to a caller-
  // assembled fold vector: the MLE only needs the grand totals.
  SufficientStats totals;
  bool have = false;
  for (const SufficientStats& fold : fold_totals) {
    if (fold.count() == 0) continue;
    if (!have) {
      totals = fold;
      have = true;
    } else {
      totals += fold;
    }
  }
  BMFUSION_REQUIRE(have, "mle snapshot needs >= 1 observed sample");
  (void)nominal;  // the MLE neither shifts nor scales
  EstimateResult result;
  result.moments = estimate_mle(totals);
  result.scaled_moments = result.moments;
  return result;
}

}  // namespace bmfusion::core
