#include "core/normal_wishart.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "linalg/cholesky.hpp"
#include "stats/moments.hpp"
#include "stats/mvn.hpp"
#include "log/log.hpp"
#include "stats/special.hpp"
#include "stats/wishart.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::core {

using linalg::Cholesky;
using linalg::Matrix;
using linalg::Vector;

namespace {
constexpr double kLog2Pi = 1.837877066409345483560659472811235279;
constexpr double kLog2 = 0.693147180559945309417232121458176568;
}  // namespace

NormalWishart::NormalWishart(Vector mu0, double kappa0, double nu0,
                             Matrix t0)
    : mu0_(std::move(mu0)), kappa0_(kappa0), nu0_(nu0), t0_(std::move(t0)) {
  const auto d = static_cast<double>(mu0_.size());
  BMFUSION_REQUIRE(mu0_.size() >= 1, "normal-wishart needs dimension >= 1");
  BMFUSION_REQUIRE(kappa0_ > 0.0, "kappa0 must be positive");
  BMFUSION_REQUIRE(nu0_ > d - 1.0, "nu0 must exceed d - 1");
  BMFUSION_REQUIRE(t0_.rows() == mu0_.size() && t0_.is_square(),
                   "scale matrix shape must match mu0");
  if (!Cholesky::is_positive_definite(t0_)) {
    throw NumericError("normal-wishart: scale matrix is not SPD");
  }
}

NormalWishart NormalWishart::from_early_stage(const GaussianMoments& early,
                                              double kappa0, double nu0) {
  early.validate();
  const auto d = static_cast<double>(early.dimension());
  BMFUSION_REQUIRE(nu0 > d,
                   "early-stage anchoring needs nu0 > d (paper eq. 20)");
  // T0 = Lambda_E / (nu0 - d) with Lambda_E = Sigma_E^-1.
  const Matrix lambda_e = Cholesky(early.covariance).inverse();
  return NormalWishart(early.mean, kappa0, nu0, lambda_e / (nu0 - d));
}

std::pair<Vector, Matrix> NormalWishart::mode() const {
  const auto d = static_cast<double>(dimension());
  BMFUSION_REQUIRE(nu0_ > d, "mode needs nu0 > d (paper eq. 16)");
  return {mu0_, t0_ * (nu0_ - d)};
}

GaussianMoments NormalWishart::mode_moments() const {
  const auto [mu, lambda] = mode();
  GaussianMoments moments;
  moments.mean = mu;
  moments.covariance = Cholesky(lambda).inverse();
  return moments;
}

NormalWishart NormalWishart::posterior(const Matrix& samples) const {
  BMFUSION_REQUIRE(samples.cols() == dimension(),
                   "sample dimension must match the prior");
  BMFUSION_REQUIRE(samples.rows() >= 1, "posterior needs >= 1 sample");
  const auto n = static_cast<double>(samples.rows());
  const Vector xbar = stats::sample_mean(samples);        // eq. (24) input
  const Matrix s = stats::scatter_matrix(samples);        // eq. (26)
  return posterior_from(n, xbar, s);
}

NormalWishart NormalWishart::posterior(const SufficientStats& stats) const {
  BMFUSION_REQUIRE(stats.dimension() == dimension(),
                   "sufficient stats dimension must match the prior");
  BMFUSION_REQUIRE(stats.count() >= 1, "posterior needs >= 1 sample");
  return posterior_from(static_cast<double>(stats.count()), stats.mean(),
                        stats.scatter());
}

NormalWishart NormalWishart::posterior_from(double n, const Vector& xbar,
                                            const Matrix& s) const {
  BMF_COUNTER_ADD("core.nw.posterior_updates", 1);
  BMF_LOG_DEBUG("normal-wishart posterior update", log::f("n", n),
                log::f("kappa0", kappa0_), log::f("nu0", nu0_),
                log::f("dim", dimension()));
  // eq. (24): mu_n = (kappa0 mu0 + n xbar) / (kappa0 + n)
  const Vector mu_n = (mu0_ * kappa0_ + xbar * n) / (kappa0_ + n);

  // eq. (25): T_n^-1 = T_0^-1 + S + kappa0 n/(kappa0+n) (mu0-xbar)(mu0-xbar)^T
  const Vector delta = mu0_ - xbar;
  const Matrix t0_inv = Cholesky(t0_).inverse();
  Matrix tn_inv =
      t0_inv + s + outer(delta, delta) * (kappa0_ * n / (kappa0_ + n));
  tn_inv.symmetrize();
  Matrix tn = Cholesky(tn_inv).inverse();

  // eqs. (27)-(28).
  return NormalWishart(mu_n, kappa0_ + n, nu0_ + n, std::move(tn));
}

double NormalWishart::log_pdf(const Vector& mu, const Matrix& lambda) const {
  BMFUSION_REQUIRE(mu.size() == dimension(), "mu dimension mismatch");
  BMFUSION_REQUIRE(lambda.rows() == dimension() && lambda.is_square(),
                   "lambda dimension mismatch");
  const auto d = static_cast<double>(dimension());
  const Cholesky lam_chol(lambda);  // throws when lambda is not SPD
  const Cholesky t0_chol(t0_);
  const double log_det_lambda = lam_chol.log_determinant();

  // Gaussian part: N(mu | mu0, (kappa0 Lambda)^-1).
  const Vector diff = mu - mu0_;
  const double quad = kappa0_ * quadratic_form(diff, lambda, diff);
  const double log_gauss = 0.5 * (d * std::log(kappa0_) + log_det_lambda -
                                  d * kLog2Pi) -
                           0.5 * quad;

  // Wishart part: Wi_{nu0}(Lambda | T0).
  const Matrix t0_inv = t0_chol.inverse();
  double trace_term = 0.0;
  for (std::size_t r = 0; r < dimension(); ++r) {
    for (std::size_t c = 0; c < dimension(); ++c) {
      trace_term += t0_inv(r, c) * lambda(c, r);
    }
  }
  const double log_wishart =
      0.5 * (nu0_ - d - 1.0) * log_det_lambda - 0.5 * trace_term -
      0.5 * nu0_ * d * kLog2 - 0.5 * nu0_ * t0_chol.log_determinant() -
      stats::log_multivariate_gamma(0.5 * nu0_, dimension());
  return log_gauss + log_wishart;
}

double NormalWishart::log_normalizer() const {
  const auto d = static_cast<double>(dimension());
  const Cholesky t0_chol(t0_);
  return 0.5 * d * (kLog2Pi - std::log(kappa0_)) +
         0.5 * nu0_ * t0_chol.log_determinant() + 0.5 * nu0_ * d * kLog2 +
         stats::log_multivariate_gamma(0.5 * nu0_, dimension());
}

double NormalWishart::log_marginal_likelihood(const Matrix& samples) const {
  BMFUSION_REQUIRE(samples.rows() >= 1 && samples.cols() == dimension(),
                   "marginal likelihood needs matching non-empty samples");
  const auto n = static_cast<double>(samples.rows());
  const auto d = static_cast<double>(dimension());
  const NormalWishart post = posterior(samples);
  return post.log_normalizer() - log_normalizer() -
         0.5 * n * d * kLog2Pi;
}

double NormalWishart::log_marginal_likelihood(
    const SufficientStats& stats) const {
  BMFUSION_REQUIRE(stats.count() >= 1 && stats.dimension() == dimension(),
                   "marginal likelihood needs matching non-empty stats");
  const auto n = static_cast<double>(stats.count());
  const auto d = static_cast<double>(dimension());
  const NormalWishart post = posterior(stats);
  return post.log_normalizer() - log_normalizer() -
         0.5 * n * d * kLog2Pi;
}

std::pair<Vector, Matrix> NormalWishart::sample(
    stats::Xoshiro256pp& rng) const {
  const stats::Wishart wishart(nu0_, t0_);
  Matrix lambda = wishart.sample(rng);
  const Matrix cov_mu = Cholesky(lambda * kappa0_).inverse();
  const stats::MultivariateNormal mvn(mu0_, cov_mu);
  Vector mu = mvn.sample(rng);
  return {std::move(mu), std::move(lambda)};
}

NormalWishart::StudentT NormalWishart::posterior_predictive() const {
  const auto d = static_cast<double>(dimension());
  BMFUSION_REQUIRE(nu0_ > d - 1.0 + 1e-12,
                   "predictive needs nu0 > d - 1");
  StudentT t;
  t.dof = nu0_ - d + 1.0;
  t.location = mu0_;
  const Matrix t0_inv = Cholesky(t0_).inverse();
  t.scale = t0_inv * ((kappa0_ + 1.0) / (kappa0_ * t.dof));
  t.scale.symmetrize();
  return t;
}

GaussianMoments map_fuse(const GaussianMoments& early,
                         const SufficientStats& stats, double kappa0,
                         double nu0) {
  BMFUSION_REQUIRE(stats.dimension() == early.dimension(),
                   "sufficient stats dimension must match the early moments");
  BMFUSION_REQUIRE(stats.count() >= 1, "map_fuse needs >= 1 sample");
  GaussianMoments fused;
  map_fuse_into(early, static_cast<double>(stats.count()), stats.mean(),
                stats.scatter(), kappa0, nu0, fused);
  return fused;
}

void map_fuse_into(const GaussianMoments& early, double n, const Vector& xbar,
                   const Matrix& scatter, double kappa0, double nu0,
                   GaussianMoments& fused) {
  const std::size_t dim = early.dimension();
  const auto d = static_cast<double>(dim);
  BMFUSION_REQUIRE(early.covariance.rows() == dim &&
                       early.covariance.cols() == dim && xbar.size() == dim &&
                       scatter.rows() == dim && scatter.cols() == dim,
                   "late summary dimension must match the early moments");
  BMFUSION_REQUIRE(n >= 1.0, "map_fuse needs >= 1 sample");
  BMFUSION_REQUIRE(kappa0 > 0.0, "kappa0 must be positive");
  BMFUSION_REQUIRE(nu0 > d, "map_fuse needs nu0 > d (paper eq. 20)");
  BMFUSION_REQUIRE(&fused != &early, "map_fuse_into cannot fuse in place");
  const double* const mu_e = early.mean.data();
  const double* const xb = xbar.data();

  // eqs. (24), (29): mu_MAP = mu_n = (kappa0 mu_E + n xbar) / (kappa0 + n).
  const double kappa_n = kappa0 + n;
  fused.mean.resize(dim);
  double* const mu = fused.mean.data();
  for (std::size_t i = 0; i < dim; ++i) {
    mu[i] = (mu_e[i] * kappa0 + xb[i] * n) / kappa_n;
  }

  // eq. (25) with the eq. (20) anchoring substituted: the prior scale obeys
  // T0^-1 = (nu0 - d) Sigma_E, so no matrix inversion is needed to form it:
  //   T_n^-1 = (nu0 - d) Sigma_E + S + kappa0 n/(kappa0+n) delta delta^T
  // with delta = mu_E - xbar. eqs. (28), (32): Lambda_MAP = (nu_n - d) T_n
  // with nu_n = nu0 + n, hence Sigma_MAP = T_n^-1 / (nu0 + n - d) — again
  // inversion-free.
  const double prior_weight = nu0 - d;
  const double shrink = kappa0 * n / (kappa0 + n);
  const double dof = nu0 + n - d;
  fused.covariance.assign_zero(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    const double* const sigma_e = early.covariance.row_data(r);
    const double* const s = scatter.row_data(r);
    double* const out = fused.covariance.row_data(r);
    const double delta_r = mu_e[r] - xb[r];
    for (std::size_t c = 0; c < dim; ++c) {
      const double delta_c = mu_e[c] - xb[c];
      out[c] = (sigma_e[c] * prior_weight + s[c] + delta_r * delta_c * shrink) /
               dof;
    }
  }
  fused.covariance.symmetrize();
}

double NormalWishart::student_t_log_pdf(const StudentT& t, const Vector& x) {
  BMFUSION_REQUIRE(x.size() == t.location.size(),
                   "student-t dimension mismatch");
  BMFUSION_REQUIRE(t.dof > 0.0, "student-t needs positive dof");
  const auto d = static_cast<double>(t.location.size());
  const Cholesky chol(t.scale);
  const double maha = chol.mahalanobis_squared(x - t.location);
  return std::lgamma(0.5 * (t.dof + d)) - std::lgamma(0.5 * t.dof) -
         0.5 * d * std::log(t.dof) - 0.5 * d * std::log(3.141592653589793) -
         0.5 * chol.log_determinant() -
         0.5 * (t.dof + d) * std::log1p(maha / t.dof);
}

}  // namespace bmfusion::core
