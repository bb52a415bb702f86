#include "core/univariate_bmf.hpp"

#include "common/contracts.hpp"
#include "core/normal_wishart.hpp"

namespace bmfusion::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

/// 1-D projection of d-dimensional sufficient statistics onto metric j:
/// the stats the same samples would have produced had only column j been
/// recorded (exact — sums are componentwise).
SufficientStats project_stats_1d(const SufficientStats& stats,
                                 std::size_t j) {
  return SufficientStats::from_raw(
      stats.count(), Vector{stats.sum()[j]},
      Matrix{{stats.sum_outer()(j, j)}});
}

}  // namespace

EstimateResult UnivariateBmfEstimator::do_snapshot(
    const std::vector<SufficientStats>& fold_totals,
    const Vector& nominal) const {
  (void)nominal;  // operates in the already-normalized space
  const std::size_t d = early_scaled_.dimension();
  std::size_t total_count = 0;
  std::size_t nonempty_folds = 0;
  for (const SufficientStats& fold : fold_totals) {
    if (fold.count() == 0) continue;
    BMFUSION_REQUIRE(fold.dimension() == d,
                     "fold statistics must match the early-stage dimension");
    total_count += fold.count();
    ++nonempty_folds;
  }
  BMFUSION_REQUIRE(total_count >= 1,
                   "univariate bmf snapshot needs >= 1 sample");
  const bool can_fold = nonempty_folds >= 2 && total_count >= 2;

  Vector mean(d);
  Vector variance(d);
  for (std::size_t j = 0; j < d; ++j) {
    GaussianMoments early_1d;
    early_1d.mean = Vector{early_scaled_.mean[j]};
    early_1d.covariance = Matrix{{early_scaled_.covariance(j, j)}};

    std::vector<SufficientStats> folds_1d;
    folds_1d.reserve(fold_totals.size());
    SufficientStats totals_1d(1);
    for (const SufficientStats& fold : fold_totals) {
      if (fold.count() == 0) {
        folds_1d.emplace_back(1);
        continue;
      }
      folds_1d.push_back(project_stats_1d(fold, j));
      totals_1d += folds_1d.back();
    }
    const CrossValidationResult sel =
        can_fold ? select_hyperparameters(early_1d, folds_1d, cv_)
                 : select_hyperparameters_evidence(early_1d, totals_1d, cv_);
    const NormalWishart prior =
        NormalWishart::from_early_stage(early_1d, sel.kappa0, sel.nu0);
    const GaussianMoments map = prior.posterior(totals_1d).map_estimate();
    mean[j] = map.mean[0];
    variance[j] = map.covariance(0, 0);
  }

  EstimateResult result;
  result.moments.mean = mean;
  result.moments.covariance = Matrix::diagonal_matrix(variance);
  result.scaled_moments = result.moments;
  return result;
}

}  // namespace bmfusion::core
