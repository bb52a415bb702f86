// Special functions used by the Bayesian machinery.
#pragma once

#include <cstddef>

namespace bmfusion::stats {

/// Natural log of the multivariate gamma function,
/// Gamma_d(a) = pi^{d(d-1)/4} * prod_{j=1..d} Gamma(a + (1-j)/2).
/// Requires a > (d-1)/2 (the Wishart degrees-of-freedom domain).
[[nodiscard]] double log_multivariate_gamma(double a, std::size_t d);

/// Standard normal density phi(x).
[[nodiscard]] double standard_normal_pdf(double x);

/// Standard normal CDF Phi(x) via erfc (accurate in both tails).
[[nodiscard]] double standard_normal_cdf(double x);

/// Inverse standard normal CDF (Acklam's rational approximation refined by
/// one Halley step; |relative error| < 1e-15 over (0, 1)).
/// Requires 0 < p < 1.
[[nodiscard]] double standard_normal_quantile(double p);

/// log(exp(a) + exp(b)) without overflow.
[[nodiscard]] double log_sum_exp(double a, double b);

}  // namespace bmfusion::stats
