// Normal-Wishart distribution over (mu, Lambda = Sigma^-1) — the conjugate
// prior of the multivariate Gaussian, and the vehicle of the paper's
// Bayesian model fusion (Section 3.2-3.3).
//
// Parameterization follows the paper (eq. 12):
//   p(mu, Lambda) = N(mu | mu0, (kappa0 Lambda)^-1) * Wi_{nu0}(Lambda | T0)
// with mode mu_M = mu0, Lambda_M = (nu0 - d) T0 (eqs. 15-16).
//
// The early-stage anchoring of eqs. 17-20 sets mu0 = mu_E and
// T0 = Lambda_E / (nu0 - d) so the prior peaks exactly at the early-stage
// moments. Observing n samples yields another normal-Wishart with updated
// hyper-parameters (eqs. 24-28), whose mode gives the MAP moment estimates
// (eqs. 29-32).
#pragma once

#include <utility>

#include "core/moments.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/rng.hpp"

namespace bmfusion::core {

/// Immutable normal-Wishart distribution.
class NormalWishart {
 public:
  /// Direct construction from hyper-parameters. Requirements: kappa0 > 0,
  /// nu0 > d - 1 (Wishart domain), t0 SPD d x d matching mu0.
  NormalWishart(linalg::Vector mu0, double kappa0, double nu0,
                linalg::Matrix t0);

  /// The paper's prior (eqs. 19-21): peaks at the early-stage moments.
  /// Requires nu0 > d (so T0 = Lambda_E/(nu0-d) is positive definite) and
  /// kappa0 > 0. `early` must validate.
  [[nodiscard]] static NormalWishart from_early_stage(
      const GaussianMoments& early, double kappa0, double nu0);

  [[nodiscard]] std::size_t dimension() const { return mu0_.size(); }
  [[nodiscard]] const linalg::Vector& mu0() const { return mu0_; }
  [[nodiscard]] double kappa0() const { return kappa0_; }
  [[nodiscard]] double nu0() const { return nu0_; }
  [[nodiscard]] const linalg::Matrix& t0() const { return t0_; }

  /// Mode of the distribution (eqs. 15-16): (mu_M, Lambda_M). Requires
  /// nu0 > d. The second element is the *precision* mode.
  [[nodiscard]] std::pair<linalg::Vector, linalg::Matrix> mode() const;

  /// The mode expressed as moments (mean, covariance = Lambda_M^-1).
  [[nodiscard]] GaussianMoments mode_moments() const;

  /// Posterior after observing the rows of `samples` (eqs. 24-28). The
  /// result is again normal-Wishart (conjugacy).
  [[nodiscard]] NormalWishart posterior(const linalg::Matrix& samples) const;

  /// Same conjugate update fed from precomputed sufficient statistics
  /// (count, sum, sum of outer products) instead of raw samples. The update
  /// equations only touch the data through (n, Xbar, S), so this costs
  /// O(d^3) however many samples the statistics summarize.
  [[nodiscard]] NormalWishart posterior(const SufficientStats& stats) const;

  /// MAP moment estimate: the mode of *this* distribution interpreted per
  /// eqs. 29-32 (use on a posterior to get mu_MAP / Sigma_MAP).
  [[nodiscard]] GaussianMoments map_estimate() const { return mode_moments(); }

  /// Log-density at (mu, lambda) including the normalization Z0 (eq. 13).
  [[nodiscard]] double log_pdf(const linalg::Vector& mu,
                               const linalg::Matrix& lambda) const;

  /// Log normalization constant Z of this distribution (paper eq. 13, in
  /// logs): log Z = (d/2)(log 2pi - log kappa) + (nu/2) log|T| +
  /// (nu d/2) log 2 + log Gamma_d(nu/2).
  [[nodiscard]] double log_normalizer() const;

  /// Closed-form log marginal likelihood (model evidence) of the samples
  /// under this prior:  log p(D) = log Z_posterior - log Z_prior
  /// - (n d / 2) log(2 pi). Enables empirical-Bayes hyper-parameter
  /// selection as an alternative to the paper's cross validation.
  [[nodiscard]] double log_marginal_likelihood(
      const linalg::Matrix& samples) const;

  /// Evidence from sufficient statistics; same value as the matrix overload
  /// up to floating-point rounding, at O(d^3) instead of O(n d^2).
  [[nodiscard]] double log_marginal_likelihood(
      const SufficientStats& stats) const;

  /// One joint draw: Lambda ~ Wi_{nu0}(T0), mu ~ N(mu0, (kappa0 Lambda)^-1).
  [[nodiscard]] std::pair<linalg::Vector, linalg::Matrix> sample(
      stats::Xoshiro256pp& rng) const;

  /// Parameters of the posterior-predictive multivariate Student-t
  /// distribution for the *next* observation:
  ///   X ~ t_{nu0-d+1}(mu0, T0^-1 (kappa0+1) / (kappa0 (nu0-d+1))).
  /// (A library extension beyond the paper; enables predictive yield.)
  struct StudentT {
    double dof = 0.0;
    linalg::Vector location;
    linalg::Matrix scale;  ///< scale matrix (not covariance)
  };
  [[nodiscard]] StudentT posterior_predictive() const;

  /// Log-density of a multivariate Student-t at x.
  [[nodiscard]] static double student_t_log_pdf(const StudentT& t,
                                                const linalg::Vector& x);

 private:
  /// Shared conjugate update (eqs. 24-28) from the sample count, sample
  /// mean and scatter matrix; both posterior() overloads delegate here.
  [[nodiscard]] NormalWishart posterior_from(double n,
                                             const linalg::Vector& xbar,
                                             const linalg::Matrix& s) const;

  linalg::Vector mu0_;
  double kappa0_;
  double nu0_;
  linalg::Matrix t0_;
};

/// MAP moment estimate fused directly from early-stage moments and late-stage
/// sufficient statistics — the composition
///   from_early_stage(early, kappa0, nu0).posterior(stats).map_estimate()
/// collapsed algebraically so that no Cholesky factorization is needed:
///   T0^-1      = (nu0 - d) Sigma_E                      (from eq. 20)
///   Sigma_MAP  = T_n^-1 / (nu0 + n - d)                 (from eqs. 28, 32)
/// This is the cross-validation hot path: one call per (grid point, fold).
/// `early` must validate; requires nu0 > d and stats.count() >= 1.
[[nodiscard]] GaussianMoments map_fuse(const GaussianMoments& early,
                                       const SufficientStats& stats,
                                       double kappa0, double nu0);

}  // namespace bmfusion::core
