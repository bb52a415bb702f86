// First two multivariate moments: the quantity the whole paper estimates.
#pragma once

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/sufficient_stats.hpp"

namespace bmfusion::core {

/// Mean vector + covariance matrix of a d-dimensional Gaussian model
/// (paper eqs. 5-7).
struct GaussianMoments {
  linalg::Vector mean;
  linalg::Matrix covariance;

  [[nodiscard]] std::size_t dimension() const { return mean.size(); }

  /// Throws ContractError when shapes mismatch or the covariance is not
  /// symmetric; NumericError (with dimension context) when it is not
  /// positive definite. Positive-definiteness is probed with the standard
  /// ridge-jitter retry (linalg::CholeskyJitter defaults), so a covariance
  /// that is semi-definite up to rounding — a near-singular early-stage
  /// prior, a tiny-fold MAP estimate — is accepted; genuinely indefinite
  /// matrices still throw.
  void validate() const;
};

/// Additive sufficient statistics (n, sum x, sum x x^T) of a sample set.
///
/// The implementation lives in the stats layer (stats::SufficientStats) so
/// the circuit Monte Carlo driver can stream into the same accumulator the
/// cross-validation engine consumes; this alias preserves the historical
/// core-namespace spelling.
using SufficientStats = stats::SufficientStats;

/// Gaussian log-likelihood of the rows of `samples` under `moments` — the
/// log of the paper's likelihood function eq. (9). Used as the
/// cross-validation score.
[[nodiscard]] double log_likelihood(const GaussianMoments& moments,
                                    const linalg::Matrix& samples);

/// Same score computed from sufficient statistics instead of raw samples:
///   sum_i log N(X_i | mu, Sigma) = -n/2 (d log 2pi + log|Sigma|)
///     - 1/2 [ trace(Sigma^{-1} S) + n (Xbar-mu)^T Sigma^{-1} (Xbar-mu) ].
/// Cost is O(d^3) regardless of how many samples the statistics summarize.
/// Strict: throws NumericError when the covariance is not positive definite.
[[nodiscard]] double log_likelihood(const GaussianMoments& moments,
                                    const SufficientStats& stats);

/// Opt-in graceful-degradation policy for the likelihood score. The fallback
/// chain is: clean Cholesky -> escalating ridge-jitter retries (`jitter`,
/// capped at jitter.attempts) -> clamped-pivot LDLT (`ldlt`, handles
/// covariances that are semi-definite up to rounding). Only a genuinely
/// indefinite covariance still throws NumericError.
struct LikelihoodFallback {
  linalg::CholeskyJitter jitter;  ///< ridge-retry schedule (1e-12..1e-8 |A|)
  bool ldlt = true;               ///< allow the clamped-LDLT last resort
};

/// Robust variant of the sufficient-statistic score used by the CV grid
/// sweep: identical to the strict overload on well-conditioned covariances
/// (the clean Cholesky attempt is bit-identical), degrades per `fallback`
/// on near-singular ones instead of disqualifying the grid point.
[[nodiscard]] double log_likelihood(const GaussianMoments& moments,
                                    const SufficientStats& stats,
                                    const LikelihoodFallback& fallback);

/// Allocation-free core of the sufficient-statistic score: the strict
/// overload's value for a held-out summary (count n, mean xbar, scatter S)
/// under a Gaussian with mean `mean` whose covariance is already factored
/// in `chol`. `work` holds the triangular solves (resized, capacity
/// reused). Both log_likelihood overloads score their Cholesky branch here,
/// and the cross-validation sweep calls it once per (grid point, fold).
[[nodiscard]] double log_likelihood_from_summary(
    const linalg::Cholesky& chol, const linalg::Vector& mean, double n,
    const linalg::Vector& xbar, const linalg::Matrix& scatter,
    linalg::Vector& work);

/// Estimation error of a mean vector, ||est - exact||_2 (paper eq. 37).
[[nodiscard]] double mean_error(const linalg::Vector& estimated,
                                const linalg::Vector& exact);

/// Estimation error of a covariance matrix, ||est - exact||_F (paper
/// eq. 38).
[[nodiscard]] double covariance_error(const linalg::Matrix& estimated,
                                      const linalg::Matrix& exact);

}  // namespace bmfusion::core
