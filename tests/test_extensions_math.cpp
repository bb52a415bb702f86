// Tests for the extension math: higher-order moments and Cornish-Fisher.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "core/higher_moments.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "stats/univariate.hpp"

namespace bmfusion {
namespace {

using linalg::Matrix;

// ----------------------------------------------------------- higher moments

TEST(HigherMoments, GaussianDataHasSmallSkewAndKurtosis) {
  stats::Xoshiro256pp rng(8);
  Matrix samples(20000, 2);
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    samples(i, 0) = stats::sample_normal(rng, 1.0, 2.0);
    samples(i, 1) = stats::sample_normal(rng, -1.0, 0.5);
  }
  const core::HigherMoments hm = core::estimate_higher_moments(samples);
  EXPECT_NEAR(hm.skewness[0], 0.0, 0.08);
  EXPECT_NEAR(hm.excess_kurtosis[1], 0.0, 0.15);
}

TEST(HigherMoments, DetectsExponentialSkew) {
  // Exponential distribution: skewness 2, excess kurtosis 6.
  stats::Xoshiro256pp rng(9);
  Matrix samples(100000, 1);
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    samples(i, 0) = stats::sample_exponential(rng, 1.0);
  }
  const core::HigherMoments hm = core::estimate_higher_moments(samples);
  EXPECT_NEAR(hm.skewness[0], 2.0, 0.15);
  EXPECT_NEAR(hm.excess_kurtosis[0], 6.0, 1.0);
}

TEST(HigherMoments, CornishFisherReducesToGaussian) {
  for (const double p : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(core::cornish_fisher_quantile(2.0, 3.0, 0.0, 0.0, p),
                2.0 + 3.0 * stats::standard_normal_quantile(p), 1e-12);
  }
}

TEST(HigherMoments, CornishFisherShiftsQuantilesWithSkew) {
  // Positive skew pushes the upper quantile out and pulls the lower in.
  const double q95_skew =
      core::cornish_fisher_quantile(0.0, 1.0, 1.0, 0.0, 0.95);
  const double q95_sym =
      core::cornish_fisher_quantile(0.0, 1.0, 0.0, 0.0, 0.95);
  EXPECT_GT(q95_skew, q95_sym);
}

TEST(HigherMoments, CornishFisherYieldInvertsQuantile) {
  const double skew = 0.8, kurt = 0.5;
  const double spec = core::cornish_fisher_quantile(1.0, 2.0, skew, kurt,
                                                    0.9);
  EXPECT_NEAR(core::cornish_fisher_yield(1.0, 2.0, skew, kurt, spec), 0.9,
              1e-9);
}

TEST(HigherMoments, CornishFisherYieldOnExponentialData) {
  // Empirical check: CF yield at the true 90% quantile of Exp(1) (= ln 10)
  // should be closer to 0.9 than the plain Gaussian yield.
  const double mean = 1.0, sd = 1.0, skew = 2.0, kurt = 6.0;
  const double spec = std::log(10.0);
  const double cf = core::cornish_fisher_yield(mean, sd, skew, kurt, spec);
  const double gauss = stats::standard_normal_cdf((spec - mean) / sd);
  EXPECT_LT(std::fabs(cf - 0.9), std::fabs(gauss - 0.9));
}

TEST(HigherMoments, InputValidation) {
  EXPECT_THROW((void)core::estimate_higher_moments(Matrix(3, 2)),
               ContractError);
  Matrix constant(10, 1, 5.0);
  EXPECT_THROW((void)core::estimate_higher_moments(constant), ContractError);
  EXPECT_THROW((void)core::cornish_fisher_quantile(0, 0, 0, 0, 0.5),
               ContractError);
}

}  // namespace
}  // namespace bmfusion
