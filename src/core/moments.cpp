#include "core/moments.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ldlt.hpp"
#include "log/log.hpp"
#include "stats/mvn.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::core {

void GaussianMoments::validate() const {
  BMFUSION_REQUIRE(mean.size() >= 1, "moments need dimension >= 1");
  BMFUSION_REQUIRE(covariance.rows() == mean.size() &&
                       covariance.cols() == mean.size(),
                   "covariance shape must match mean dimension");
  BMFUSION_REQUIRE(covariance.is_symmetric(1e-9),
                   "covariance must be symmetric");
  BMFUSION_REQUIRE(mean.is_finite() && covariance.is_finite(),
                   "moments must be finite");
  try {
    // Jittered probe: accept semi-definite-up-to-rounding covariances (the
    // scoring path degrades gracefully on them), reject indefinite ones.
    (void)linalg::Cholesky::factor_with_jitter(covariance);
  } catch (const NumericError& e) {
    throw NumericError("moments: covariance is not positive definite",
                       ErrorContext{}
                           .with_operation("moments-validate")
                           .with_dimension(dimension())
                           .with_detail(e.what()));
  }
}

double log_likelihood(const GaussianMoments& moments,
                      const linalg::Matrix& samples) {
  const stats::MultivariateNormal mvn(moments.mean, moments.covariance);
  return mvn.log_likelihood(samples);
}

namespace {

constexpr double kLog2Pi = 1.837877066409345483560659472811235279;

void require_stats_match(const GaussianMoments& moments,
                         const SufficientStats& stats) {
  BMFUSION_REQUIRE(stats.dimension() == moments.dimension(),
                   "sufficient stats dimension must match the moments");
  BMFUSION_REQUIRE(stats.count() >= 1,
                   "log likelihood needs >= 1 summarized sample");
}

/// The score from a factorization's log-determinant, trace(Sigma^{-1} S)
/// and Mahalanobis term — the one copy of the formula.
double assemble_score(double n, double d, double log_det, double trace,
                      double maha) {
  const double quad = trace + n * maha;
  return -0.5 * n * (d * kLog2Pi + log_det) - 0.5 * quad;
}

double score_with(const linalg::Cholesky& chol,
                  const GaussianMoments& moments,
                  const SufficientStats& stats) {
  linalg::Vector work;
  return log_likelihood_from_summary(chol, moments.mean,
                                     static_cast<double>(stats.count()),
                                     stats.mean(), stats.scatter(), work);
}

}  // namespace

double log_likelihood_from_summary(const linalg::Cholesky& chol,
                                   const linalg::Vector& mean, double n,
                                   const linalg::Vector& xbar,
                                   const linalg::Matrix& scatter,
                                   linalg::Vector& work) {
  const std::size_t dim = mean.size();
  BMFUSION_REQUIRE(chol.dimension() == dim && xbar.size() == dim,
                   "summary dimension must match the factored covariance");
  const double trace = chol.trace_of_solve(scatter, work);
  work.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) work[i] = xbar[i] - mean[i];
  const double maha = chol.mahalanobis_squared(work, work);
  return assemble_score(n, static_cast<double>(dim), chol.log_determinant(),
                        trace, maha);
}

double log_likelihood(const GaussianMoments& moments,
                      const SufficientStats& stats) {
  require_stats_match(moments, stats);
  BMF_COUNTER_ADD("core.loglik.evals", 1);
  const linalg::Cholesky chol(moments.covariance);  // throws when not SPD
  return score_with(chol, moments, stats);
}

double log_likelihood(const GaussianMoments& moments,
                      const SufficientStats& stats,
                      const LikelihoodFallback& fallback) {
  require_stats_match(moments, stats);
  BMF_COUNTER_ADD("core.loglik.evals", 1);
  BMF_COUNTER_ADD("core.loglik.fallback_evals", 1);
  try {
    const linalg::Cholesky chol =
        linalg::Cholesky::factor_with_jitter(moments.covariance,
                                             fallback.jitter);
    if (chol.jitter_applied() > 0.0) {
      BMF_COUNTER_ADD("core.loglik.fallback_jitter", 1);
      BMF_LOG_DEBUG("loglik scored through jitter fallback",
                    log::f("ridge", chol.jitter_applied()),
                    log::f("dim", moments.dimension()),
                    log::f("n", stats.count()));
    }
    return score_with(chol, moments, stats);
  } catch (const NumericError& e) {
    if (!fallback.ldlt) {
      throw NumericError("log likelihood: covariance not factorizable",
                         ErrorContext{}
                             .with_operation("log-likelihood")
                             .with_dimension(moments.dimension())
                             .with_sample_count(stats.count())
                             .with_detail(e.what()));
    }
  }
  // Last resort: clamped-pivot LDLT handles covariances that are positive
  // semi-definite up to rounding; genuinely indefinite ones still throw.
  BMF_COUNTER_ADD("core.loglik.fallback_ldlt", 1);
  BMF_LOG_DEBUG("loglik escalating to clamped ldlt fallback",
                log::f("dim", moments.dimension()),
                log::f("n", stats.count()));
  try {
    const linalg::Ldlt ldlt = linalg::Ldlt::semidefinite(moments.covariance);
    return assemble_score(
        static_cast<double>(stats.count()),
        static_cast<double>(moments.dimension()), ldlt.log_abs_determinant(),
        ldlt.trace_of_solve(stats.scatter()),
        ldlt.mahalanobis_squared(stats.mean() - moments.mean));
  } catch (const NumericError& e) {
    throw NumericError("log likelihood: covariance not factorizable",
                       ErrorContext{}
                           .with_operation("log-likelihood")
                           .with_dimension(moments.dimension())
                           .with_sample_count(stats.count())
                           .with_detail(e.what()));
  }
}

double mean_error(const linalg::Vector& estimated,
                  const linalg::Vector& exact) {
  BMFUSION_REQUIRE(estimated.size() == exact.size(),
                   "mean error dimension mismatch");
  return (estimated - exact).norm2();
}

double covariance_error(const linalg::Matrix& estimated,
                        const linalg::Matrix& exact) {
  BMFUSION_REQUIRE(estimated.rows() == exact.rows() &&
                       estimated.cols() == exact.cols(),
                   "covariance error shape mismatch");
  return (estimated - exact).norm_frobenius();
}

}  // namespace bmfusion::core
