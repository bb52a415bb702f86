// Unified moment-estimator interface: batch and streaming, one core.
//
// Every estimation strategy in the library — the paper's MLE baseline
// (eqs. 10-11), the headline Bayesian model fusion of Algorithm 1, and the
// univariate BMF prior art — answers the same question: given late-stage
// samples (and, for fusion methods, a nominal late-stage simulation), what
// are the first two moments? MomentEstimator captures exactly that contract
// so experiments, benches and examples can treat strategies polymorphically.
//
// The interface has two entry styles that converge on one estimation core
// per strategy, do_snapshot(fold_totals, nominal):
//
//   * batch:      estimate(samples[, nominal]) — one matrix, one answer.
//     By default the batch runs as a stream of one batch: rows are mapped
//     by stream_transform and dealt round-robin into local fold streams,
//     so estimate(X, nom) is bitwise equal to set_nominal(nom), observe(X),
//     snapshot() on a fresh estimator. (MleEstimator keeps its two-pass
//     centered fit for batches; a one-pass fit on raw metrics loses digits.)
//   * streaming:  set_nominal() once, observe()/absorb()/merge() as data
//     arrives, snapshot() whenever an estimate is wanted. State lives in
//     per-fold StatStreams whose deterministic pairwise reduction makes
//     block-aligned shard splits reassemble bitwise (stats/stat_stream.hpp);
//     export_shard()/absorb(StatsShard) move that state across the wire.
//
// Conjugacy is what makes the streaming surface cheap: a new sample is an
// O(d^2) statistics update, and snapshot() is O(d^3) regardless of how many
// samples the stream has absorbed. A snapshot of an unchanged stream is
// cheaper still: the last answer (or error) is kept until the next mutation,
// so a poll costs a copy rather than another hyper-parameter search.
//
// Threading: an estimator is not internally synchronized. snapshot() is
// const but fills the memo (as BmfEstimator fills its transform cache), so
// one estimator serves one thread at a time; serve::Session's mutex is what
// provides this for served streams.
#pragma once

#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/cross_validation.hpp"
#include "core/moments.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/stat_stream.hpp"
#include "stats/stat_wire.hpp"

namespace bmfusion::core {

/// Common result of every estimator. Hyper-parameter-free strategies (e.g.
/// MLE) leave kappa0/nu0/score as NaN and report identical moments and
/// scaled_moments.
struct EstimateResult {
  GaussianMoments moments;         ///< estimate in original late-stage units
  GaussianMoments scaled_moments;  ///< estimate in the fused (scaled) space
  double kappa0 = std::numeric_limits<double>::quiet_NaN();  ///< selected
  double nu0 = std::numeric_limits<double>::quiet_NaN();     ///< selected
  /// Model-selection score of the winning hyper-parameters (held-out
  /// log-likelihood for CV, per-sample log evidence for empirical Bayes).
  double score = std::numeric_limits<double>::quiet_NaN();
  /// Full model-selection surface (one entry per (kappa0, nu0) grid point;
  /// disqualified points carry -inf). Empty for hyper-parameter-free
  /// strategies. Consumed by bmf_cli --cv-surface and bmf_doctor.
  std::vector<GridScore> cv_grid;
};

/// Abstract moment estimator (non-virtual interface): the public entry
/// points run shared contract checks and the non-finite-input screen, then
/// dispatch to the strategy hooks.
class MomentEstimator {
 public:
  virtual ~MomentEstimator() = default;

  /// Short stable identifier ("mle", "bmf", ...) for reports and benches.
  [[nodiscard]] virtual std::string_view name() const = 0;

  // --- Batch -------------------------------------------------------------

  /// Estimates moments from the rows of `samples`. `nominal` is the single
  /// nominal (variation-free) late-stage simulation; estimators that do not
  /// shift by a nominal point ignore it. When non-empty it must match the
  /// sample dimension. Non-finite cells in either input throw DataError with
  /// the offending row/column in the error context (the shared API-boundary
  /// screen for corrupted measurement data); degenerate-but-finite inputs
  /// either recover through the documented numeric fallbacks or throw
  /// NumericError describing what was degenerate.
  [[nodiscard]] EstimateResult estimate(const linalg::Matrix& samples,
                                        const linalg::Vector& nominal) const;

  /// Convenience overload for nominal-free estimators; passes an empty
  /// nominal vector. Estimators that require one throw ContractError.
  [[nodiscard]] EstimateResult estimate(const linalg::Matrix& samples) const;

  // --- Streaming ---------------------------------------------------------

  /// Fixes the late-stage nominal point the stream is relative to. Must be
  /// called before the first observe/absorb for strategies that shift by a
  /// nominal (they accumulate in their normalized space); immutable once
  /// samples have been observed (ContractError).
  void set_nominal(const linalg::Vector& nominal);
  [[nodiscard]] const linalg::Vector& nominal() const { return nominal_; }

  /// Folds one raw-space sample (or every row of a batch) into the stream.
  /// Samples are assigned round-robin to stream_folds() fold accumulators —
  /// the same i % folds split a batch estimate() uses — so snapshot() can
  /// cross-validate. O(d^2) per sample; non-finite cells throw DataError.
  void observe(const linalg::Vector& sample);
  void observe(const linalg::Matrix& samples);

  /// Folds a pre-summarized raw-space sample set into the stream (assigned
  /// round-robin over absorb calls). Exact in set semantics; not part of
  /// the bitwise block grid.
  void absorb(const SufficientStats& stats);

  /// Merges a wire-format shard (produced by export_shard of an equally
  /// configured estimator, so its folds are already in this estimator's
  /// stream space). Shard estimator tags must match name() when present;
  /// fold counts must agree; a shard nominal adopts into an untouched
  /// stream and must match an established one. Throws DataError on
  /// mismatched shards.
  void absorb(const stats::StatsShard& shard);

  /// Appends `other`'s stream after this one, fold by fold (concatenation
  /// semantics). Both estimators must agree on name(), fold count,
  /// dimension and nominal. Block-aligned splits reassemble bitwise.
  void merge(const MomentEstimator& other);

  /// Estimate from everything observed so far. Requires >= 1 sample (some
  /// strategies need more; they throw the same errors as their batch path).
  /// Repeatable: snapshot() does not disturb the stream. The outcome is
  /// memoized until the next observe/absorb/merge/reset_stream/set_nominal,
  /// so repeated calls on an unchanged stream return a copy that is bitwise
  /// identical to a cold computation, or rethrow the error the computation
  /// threw (std::bad_alloc excepted: it says nothing about the stream).
  [[nodiscard]] EstimateResult snapshot() const;

  /// Samples observed/absorbed/merged into the stream so far.
  [[nodiscard]] std::size_t observed_count() const { return observed_; }

  /// The stream state as a wire-format shard (fold streams + nominal +
  /// name() tag), ready for serialize_shard / shard_to_json.
  [[nodiscard]] stats::StatsShard export_shard(std::uint64_t shard_id) const;

  /// Discards all streamed samples; keeps the nominal point.
  void reset_stream();

  /// Per-fold stream state (introspection for tests and the serve layer).
  [[nodiscard]] const std::vector<stats::StatStream>& streams() const {
    return streams_;
  }

 protected:
  /// Batch strategy hook; `samples` is non-empty and finite, `nominal`
  /// either empty or dimension-matched when this is called. Default: the
  /// batch as a stream of one batch — rows mapped by stream_transform,
  /// dealt round-robin over stream_folds() local fold streams and handed
  /// to do_snapshot, so estimate() equals observe() + snapshot() bit for
  /// bit. A strategy that cross-validates (stream_folds() >= 2) needs >= 2
  /// rows (ContractError).
  [[nodiscard]] virtual EstimateResult do_estimate(
      const linalg::Matrix& samples, const linalg::Vector& nominal) const;

  /// Snapshot strategy hook: one SufficientStats per fold (empty folds are
  /// dimension-matched with count 0), in this estimator's *stream space*
  /// (see stream_transform). Default: ContractError ("does not support
  /// streaming").
  [[nodiscard]] virtual EstimateResult do_snapshot(
      const std::vector<SufficientStats>& fold_totals,
      const linalg::Vector& nominal) const;

  /// Number of fold accumulators the stream maintains (queried when the
  /// first sample arrives). Strategies that cross-validate return their
  /// fold count; default 1.
  [[nodiscard]] virtual std::size_t stream_folds() const { return 1; }

  /// Maps a raw-space sample into the space the stream accumulates in,
  /// relative to `nominal` (the stream's or the batch's), writing it into
  /// `out` (resized, capacity reused: a batch keeps one buffer). Default:
  /// identity. BMF normalizes here so fold statistics are accumulated from
  /// O(1)-centered values instead of being algebraically re-centered at
  /// snapshot time (which would cancel catastrophically for metrics whose
  /// nominal dwarfs their spread).
  virtual void stream_transform(const linalg::Vector& sample,
                                const linalg::Vector& nominal,
                                linalg::Vector& out) const;

  /// Same map for pre-summarized statistics (absorb path). Default:
  /// identity. Transforming a summary is exact only in real arithmetic —
  /// see ShiftScale::apply(SufficientStats).
  [[nodiscard]] virtual SufficientStats stream_transform_stats(
      const SufficientStats& stats, const linalg::Vector& nominal) const;

  /// Notification that set_nominal changed the nominal point (caches of
  /// nominal-derived transforms invalidate here). Default: no-op.
  virtual void on_nominal_changed() {}

 private:
  /// Maps every row of `samples` with stream_transform and deals row i to
  /// streams[(first + i) % streams.size()]: the one row loop behind
  /// observe(Matrix) and the default batch path. Two buffers are reused
  /// across the rows, so a batch allocates a fixed amount however many
  /// rows it carries (beyond the streams' own block bookkeeping).
  void deal_rows(const linalg::Matrix& samples, const linalg::Vector& nominal,
                 std::vector<stats::StatStream>& streams,
                 std::size_t first) const;

  /// Sizes the fold accumulators on first use and pins the dimension.
  void ensure_streams(std::size_t dimension);

  std::vector<stats::StatStream> streams_;  ///< one per fold; lazy init
  linalg::Vector nominal_;                  ///< empty until set_nominal
  std::size_t observed_ = 0;                ///< samples streamed so far
  std::size_t absorb_cursor_ = 0;           ///< round-robin fold for absorb
  /// Drops the memoized snapshot outcome; every mutator calls it first.
  void forget_snapshot();

  /// Last snapshot() of the current stream: its answer or, if it threw,
  /// its error. At most one is set.
  mutable std::optional<EstimateResult> snapshot_memo_;
  mutable std::exception_ptr snapshot_error_;
};

/// The paper's baseline (eqs. 10-11) behind the unified interface. Ignores
/// the nominal point; works from a single sample (the covariance of fewer
/// samples than dimensions is rank deficient, as in the paper's baseline).
/// Streams raw samples into a single fold; batches keep the two-pass
/// centered fit, which a one-pass fit on raw metrics cannot match.
class MleEstimator final : public MomentEstimator {
 public:
  [[nodiscard]] std::string_view name() const override { return "mle"; }

 protected:
  [[nodiscard]] EstimateResult do_estimate(
      const linalg::Matrix& samples,
      const linalg::Vector& nominal) const override;
  [[nodiscard]] EstimateResult do_snapshot(
      const std::vector<SufficientStats>& fold_totals,
      const linalg::Vector& nominal) const override;
};

}  // namespace bmfusion::core
