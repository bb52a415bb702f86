// Univariate BMF baseline (the prior art this paper extends, ref. [7]).
//
// Estimates each metric independently with a normal-gamma conjugate prior —
// mathematically the d = 1 special case of the normal-Wishart machinery, so
// it reuses NormalWishart per dimension. Comparing it against the
// multivariate estimator quantifies the value of fusing *correlations*,
// which is exactly the paper's motivation (Section 2, last paragraph).
#pragma once

#include <utility>
#include <vector>

#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/moments.hpp"
#include "linalg/matrix.hpp"

namespace bmfusion::core {

/// The univariate baseline behind the unified MomentEstimator interface. It
/// works in the already-normalized (scaled) space and ignores the nominal
/// point; `early_scaled` supplies each metric's prior mean and variance, and
/// off-diagonal early knowledge is deliberately ignored. The reported
/// covariance is diagonal (the best a univariate method can report).
///
/// One core for batch and stream: samples accumulate round-robin into
/// cv.folds fold streams (a batch estimate() is a stream of one batch), and
/// do_snapshot projects each fold's statistics onto every metric and runs
/// that metric's 1-D hyper-parameter search and MAP fusion.
class UnivariateBmfEstimator final : public MomentEstimator {
 public:
  explicit UnivariateBmfEstimator(GaussianMoments early_scaled,
                                  CrossValidationConfig cv = {})
      : early_scaled_(std::move(early_scaled)), cv_(cv) {
    early_scaled_.validate();
    cv_.validate();
  }

  [[nodiscard]] std::string_view name() const override {
    return "univariate-bmf";
  }

 protected:
  [[nodiscard]] EstimateResult do_snapshot(
      const std::vector<SufficientStats>& fold_totals,
      const linalg::Vector& nominal) const override;
  [[nodiscard]] std::size_t stream_folds() const override {
    return cv_.folds;
  }

 private:
  GaussianMoments early_scaled_;
  CrossValidationConfig cv_;
};

}  // namespace bmfusion::core
