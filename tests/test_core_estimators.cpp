// Tests for moments/MLE, shift-scale, cross validation, the BMF estimator
// (Algorithm 1), the univariate baseline, and yield estimation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "core/bmf_estimator.hpp"
#include "core/cross_validation.hpp"
#include "core/mle.hpp"
#include "core/moments.hpp"
#include "core/shift_scale.hpp"
#include "core/univariate_bmf.hpp"
#include "core/yield.hpp"
#include "stats/moments.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"

namespace bmfusion::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

GaussianMoments toy_moments() {
  GaussianMoments m;
  m.mean = Vector{2.0, -1.0};
  m.covariance = Matrix{{1.0, 0.4}, {0.4, 2.0}};
  return m;
}

Matrix draws(const GaussianMoments& m, std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  return stats::MultivariateNormal(m.mean, m.covariance)
      .sample_matrix(rng, n);
}

// ----------------------------------------------------------------- moments

TEST(Moments, ValidateAcceptsGoodMoments) {
  EXPECT_NO_THROW(toy_moments().validate());
}

TEST(Moments, ValidateRejectsBadShapes) {
  GaussianMoments m = toy_moments();
  m.covariance = Matrix(3, 3);
  EXPECT_THROW(m.validate(), ContractError);
  m = toy_moments();
  m.covariance(0, 1) = 99.0;  // asymmetric
  EXPECT_THROW(m.validate(), ContractError);
  m = toy_moments();
  m.covariance = Matrix{{1.0, 2.0}, {2.0, 1.0}};  // indefinite
  EXPECT_THROW(m.validate(), NumericError);
}

TEST(Moments, LogLikelihoodMatchesMvn) {
  const GaussianMoments m = toy_moments();
  const Matrix samples = draws(m, 5, 1);
  const stats::MultivariateNormal mvn(m.mean, m.covariance);
  EXPECT_NEAR(log_likelihood(m, samples), mvn.log_likelihood(samples),
              1e-12);
}

TEST(Moments, ErrorMetricsMatchPaperEqs3738) {
  const Vector a{1.0, 2.0};
  const Vector b{4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_error(a, b), 5.0);  // 2-norm (eq. 37)
  const Matrix ma{{1.0, 0.0}, {0.0, 1.0}};
  const Matrix mb{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_DOUBLE_EQ(covariance_error(ma, mb), std::sqrt(1.0 + 4.0));
  EXPECT_THROW((void)mean_error(a, Vector(3)), ContractError);
}

// --------------------------------------------------------------------- mle

TEST(Mle, RecoversTruthWithManySamples) {
  const GaussianMoments truth = toy_moments();
  const GaussianMoments est = estimate_mle(draws(truth, 50000, 2));
  EXPECT_TRUE(approx_equal(est.mean, truth.mean, 0.03));
  EXPECT_TRUE(approx_equal(est.covariance, truth.covariance, 0.05));
}

TEST(Mle, SingleSampleGivesZeroCovariance) {
  const GaussianMoments est = estimate_mle(Matrix{{3.0, 4.0}});
  EXPECT_TRUE(est.mean == Vector({3.0, 4.0}));
  EXPECT_EQ(est.covariance.norm_max(), 0.0);
}

TEST(Mle, UsesBiasedNormalization) {
  // Paper eq. 11 divides by n, not n - 1.
  const Matrix samples{{0.0}, {2.0}};
  EXPECT_DOUBLE_EQ(estimate_mle(samples).covariance(0, 0), 1.0);
}

// ------------------------------------------------------------- shift-scale

TEST(ShiftScale, ForwardAndInverseAreExactInverses) {
  const ShiftScale t(Vector{1.0, -2.0}, Vector{2.0, 0.5});
  const Vector x{3.0, 4.0};
  EXPECT_TRUE(approx_equal(t.invert(t.apply(x)), x, 1e-14));
  const Vector y = t.apply(x);
  EXPECT_DOUBLE_EQ(y[0], 1.0);    // (3-1)/2
  EXPECT_DOUBLE_EQ(y[1], 12.0);   // (4+2)/0.5
}

TEST(ShiftScale, MomentsPushForwardMatchesSampleTransform) {
  const GaussianMoments m = toy_moments();
  const ShiftScale t(Vector{0.5, 0.5}, Vector{2.0, 4.0});
  const Matrix samples = draws(m, 20000, 3);
  const GaussianMoments direct = t.apply(m);
  const GaussianMoments via_samples = estimate_mle(t.apply(samples));
  EXPECT_TRUE(approx_equal(direct.mean, via_samples.mean, 0.05));
  EXPECT_TRUE(approx_equal(direct.covariance, via_samples.covariance, 0.05));
}

TEST(ShiftScale, MomentRoundTrip) {
  const GaussianMoments m = toy_moments();
  const ShiftScale t(Vector{1.0, 2.0}, Vector{3.0, 0.1});
  const GaussianMoments back = t.invert(t.apply(m));
  EXPECT_TRUE(approx_equal(back.mean, m.mean, 1e-12));
  EXPECT_TRUE(approx_equal(back.covariance, m.covariance, 1e-12));
}

TEST(ShiftScale, RejectsNonPositiveScale) {
  EXPECT_THROW(ShiftScale(Vector{0.0}, Vector{0.0}), ContractError);
  EXPECT_THROW(ShiftScale(Vector{0.0}, Vector{-1.0}), ContractError);
}

TEST(ShiftScale, StageTransformsImplementSection41) {
  // Early transform: shift by early nominal, scale by early sigma.
  // Late transform: shift by late nominal, same scale.
  GaussianMoments early;
  early.mean = Vector{10.0, 20.0};
  early.covariance = Matrix{{4.0, 0.0}, {0.0, 9.0}};
  const StageTransforms t = make_stage_transforms(Vector{9.0, 19.0},
                                                  Vector{11.0, 22.0}, early);
  EXPECT_TRUE(t.early.shift() == Vector({9.0, 19.0}));
  EXPECT_TRUE(t.late.shift() == Vector({11.0, 22.0}));
  EXPECT_TRUE(approx_equal(t.early.scale(), Vector{2.0, 3.0}, 1e-14));
  EXPECT_TRUE(approx_equal(t.late.scale(), Vector{2.0, 3.0}, 1e-14));
  // The transformed early distribution is near-isotropic: unit variances.
  const GaussianMoments scaled = t.early.apply(early);
  EXPECT_NEAR(scaled.covariance(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(scaled.covariance(1, 1), 1.0, 1e-14);
}

// --------------------------------------------------------- cross validation

TEST(CrossValidation, LogSpacedGridEndpointsAndMonotonicity) {
  const std::vector<double> g = log_spaced(1.0, 1000.0, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_NEAR(g.front(), 1.0, 1e-12);
  EXPECT_NEAR(g.back(), 1000.0, 1e-9);
  EXPECT_NEAR(g[1], 10.0, 1e-9);
  EXPECT_THROW((void)log_spaced(0.0, 1.0, 3), ContractError);
  EXPECT_THROW((void)log_spaced(1.0, 2.0, 1), ContractError);
}

TEST(CrossValidation, AccuratePriorWinsLargeHyperparameters) {
  // Early == late distribution: the best fit is to trust the prior.
  const GaussianMoments truth = toy_moments();
  const Matrix late = draws(truth, 12, 4);
  const CrossValidationResult sel = select_hyperparameters(truth, late);
  EXPECT_GT(sel.kappa0, 30.0);
  EXPECT_GT(sel.nu0, 30.0);
}

TEST(CrossValidation, WrongPriorMeanGetsSmallKappa) {
  GaussianMoments prior = toy_moments();
  prior.mean = Vector{20.0, 20.0};  // wildly wrong mean, correct covariance
  const Matrix late = draws(toy_moments(), 24, 5);
  const CrossValidationResult sel = select_hyperparameters(prior, late);
  EXPECT_LT(sel.kappa0, 5.0);   // ignore the prior mean
  EXPECT_GT(sel.nu0, 10.0);     // but keep the covariance knowledge
}

TEST(CrossValidation, WrongPriorCovarianceGetsSmallNu) {
  GaussianMoments prior = toy_moments();
  prior.covariance = Matrix::identity(2) * 100.0;  // wrong scale
  const Matrix late = draws(toy_moments(), 48, 6);
  const CrossValidationResult sel = select_hyperparameters(prior, late);
  EXPECT_LT(sel.nu0, 2.0 + 20.0);
}

TEST(CrossValidation, TableCoversFullGrid) {
  CrossValidationConfig cfg;
  cfg.kappa_points = 5;
  cfg.nu_points = 7;
  const CrossValidationResult sel =
      select_hyperparameters(toy_moments(), draws(toy_moments(), 8, 7), cfg);
  EXPECT_EQ(sel.grid().size(), 35u);
  // Best score actually is the max of the grid.
  double best = -1e300;
  for (const GridScore& g : sel.grid()) best = std::max(best, g.score);
  EXPECT_DOUBLE_EQ(best, sel.score);
}

TEST(CrossValidation, FoldCountClampsToSampleCount) {
  CrossValidationConfig cfg;
  cfg.folds = 10;
  // Only 3 samples: fold count must clamp internally and still work.
  EXPECT_NO_THROW((void)select_hyperparameters(
      toy_moments(), draws(toy_moments(), 3, 8), cfg));
}

TEST(CrossValidation, InputValidation) {
  EXPECT_THROW(
      (void)select_hyperparameters(toy_moments(), Matrix(1, 2)),
      ContractError);
  EXPECT_THROW(
      (void)select_hyperparameters(toy_moments(), Matrix(5, 3)),
      ContractError);
  CrossValidationConfig cfg;
  cfg.folds = 1;
  EXPECT_THROW((void)select_hyperparameters(toy_moments(),
                                            draws(toy_moments(), 8, 9), cfg),
               ContractError);
}

// ---------------------------------------------------------- bmf estimator

TEST(BmfEstimator, BeatsMleWithGoodPriorAndFewSamples) {
  const GaussianMoments truth = toy_moments();
  EarlyStageKnowledge early{truth, truth.mean};  // nominal = mean (no shift)
  const BmfEstimator estimator(early);

  double bmf_err = 0.0, mle_err = 0.0;
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    const Matrix late = draws(truth, 6, 100 + rep);
    const BmfResult bmf = estimator.estimate(late, truth.mean);
    bmf_err += covariance_error(bmf.moments.covariance, truth.covariance);
    mle_err +=
        covariance_error(estimate_mle(late).covariance, truth.covariance);
  }
  EXPECT_LT(bmf_err, 0.6 * mle_err);
}

TEST(BmfEstimator, FuseAtReproducesClosedForm) {
  const GaussianMoments early = toy_moments();
  const Matrix late = draws(early, 9, 10);
  const GaussianMoments fused = BmfEstimator::fuse_at(early, late, 3.0, 12.0);
  // Same closed form as NormalWishart posterior MAP (checked in detail in
  // test_normal_wishart); here verify basic sanity + SPD.
  fused.validate();
  const Vector xbar = stats::sample_mean(late);
  const Vector expected = (early.mean * 3.0 + xbar * 9.0) / 12.0;
  EXPECT_TRUE(approx_equal(fused.mean, expected, 1e-12));
}

TEST(BmfEstimator, ShiftScaleMakesFusionUnitInvariant) {
  // Scaling a metric by 1e6 (e.g. Hz -> uHz) must not change the estimate
  // in physical terms when shift/scale is on.
  const GaussianMoments truth = toy_moments();
  const Matrix late_raw = draws(truth, 10, 11);

  // "Rescaled world": metric 0 multiplied by 1e6.
  const Vector unit_scale{1e6, 1.0};
  GaussianMoments truth_big = truth;
  truth_big.mean = hadamard(truth.mean, unit_scale);
  Matrix cov_big = truth.covariance;
  cov_big(0, 0) *= 1e12;
  cov_big(0, 1) *= 1e6;
  cov_big(1, 0) *= 1e6;
  truth_big.covariance = cov_big;
  Matrix late_big = late_raw;
  for (std::size_t i = 0; i < late_big.rows(); ++i) late_big(i, 0) *= 1e6;

  const BmfEstimator small(EarlyStageKnowledge{truth, truth.mean});
  const BmfEstimator big(EarlyStageKnowledge{truth_big, truth_big.mean});
  const BmfResult r_small = small.estimate(late_raw, truth.mean);
  const BmfResult r_big = big.estimate(late_big, truth_big.mean);
  // Identical hyper-parameter selection and identical scaled-space result.
  EXPECT_DOUBLE_EQ(r_small.kappa0, r_big.kappa0);
  EXPECT_DOUBLE_EQ(r_small.nu0, r_big.nu0);
  EXPECT_NEAR(r_small.moments.mean[0] * 1e6, r_big.moments.mean[0],
              std::fabs(r_big.moments.mean[0]) * 1e-9);
}

TEST(BmfEstimator, RawModeSkipsNormalization) {
  const GaussianMoments truth = toy_moments();
  BmfConfig cfg;
  cfg.apply_shift_scale = false;
  const BmfEstimator estimator(EarlyStageKnowledge{truth, truth.mean}, cfg);
  const Matrix late = draws(truth, 8, 12);
  const BmfResult r = estimator.estimate(late, truth.mean);
  // Without the transform, scaled == raw moments.
  EXPECT_TRUE(approx_equal(r.moments.mean, r.scaled_moments.mean, 1e-14));
}

TEST(BmfEstimator, ResultMomentsAreValid) {
  const GaussianMoments truth = toy_moments();
  const BmfEstimator estimator(EarlyStageKnowledge{truth, truth.mean});
  const BmfResult r = estimator.estimate(draws(truth, 5, 13), truth.mean);
  EXPECT_NO_THROW(r.moments.validate());
  EXPECT_GE(r.kappa0, 1.0);
  EXPECT_GT(r.nu0, 2.0);
  EXPECT_TRUE(std::isfinite(r.score));
}

TEST(BmfEstimator, InputValidation) {
  const GaussianMoments truth = toy_moments();
  EXPECT_THROW(BmfEstimator(EarlyStageKnowledge{truth, Vector(3)}),
               ContractError);
  const BmfEstimator estimator(EarlyStageKnowledge{truth, truth.mean});
  EXPECT_THROW((void)estimator.estimate(Matrix(1, 2), truth.mean),
               ContractError);
  EXPECT_THROW((void)estimator.estimate(Matrix(5, 3), truth.mean),
               ContractError);
}

// ---------------------------------------------------------- univariate bmf

TEST(UnivariateBmf, MatchesMultivariateOnIndependentMetrics) {
  // With a diagonal truth there is no correlation to exploit; univariate
  // and multivariate BMF should perform comparably on the variances.
  GaussianMoments truth;
  truth.mean = Vector{0.0, 0.0};
  truth.covariance = Matrix::diagonal_matrix(Vector{1.0, 4.0});
  const Matrix late = draws(truth, 16, 14);
  const GaussianMoments uni =
      UnivariateBmfEstimator(truth).estimate(late).moments;
  EXPECT_NEAR(uni.covariance(0, 0), 1.0, 0.6);
  EXPECT_NEAR(uni.covariance(1, 1), 4.0, 2.4);
  EXPECT_EQ(uni.covariance(0, 1), 0.0);
  EXPECT_EQ(uni.covariance(1, 0), 0.0);
}

TEST(UnivariateBmf, MissesCorrelations) {
  // Strongly correlated truth: the univariate baseline's covariance error
  // is lower-bounded by the off-diagonal mass it cannot represent.
  GaussianMoments truth;
  truth.mean = Vector{0.0, 0.0};
  truth.covariance = Matrix{{1.0, 0.9}, {0.9, 1.0}};
  const Matrix late = draws(truth, 32, 15);
  const GaussianMoments uni =
      UnivariateBmfEstimator(truth).estimate(late).moments;
  const double uni_err = covariance_error(uni.covariance, truth.covariance);
  EXPECT_GT(uni_err, 0.9);  // at least the two 0.9 off-diagonals, in norm
  const GaussianMoments multi = BmfEstimator::fuse_at(truth, late, 10.0,
                                                      50.0);
  EXPECT_LT(covariance_error(multi.covariance, truth.covariance), uni_err);
}

// ------------------------------------------------------------------- yield

TEST(Yield, SpecBoxValidationAndContains) {
  SpecBox box{Vector{0.0, -1.0}, Vector{1.0, 1.0}};
  EXPECT_NO_THROW(box.validate());
  EXPECT_TRUE(box.contains(Vector{0.5, 0.0}));
  EXPECT_FALSE(box.contains(Vector{1.5, 0.0}));
  EXPECT_FALSE(box.contains(Vector{0.5, -2.0}));
  SpecBox bad{Vector{1.0}, Vector{0.0}};
  EXPECT_THROW(bad.validate(), ContractError);
  EXPECT_TRUE(SpecBox::unconstrained(2).contains(Vector{1e30, -1e30}));
}

TEST(Yield, GaussianOneSidedSpecMatchesPhi) {
  // X ~ N(0,1), spec x <= 1: yield = Phi(1) = 0.8413.
  GaussianMoments m;
  m.mean = Vector{0.0};
  m.covariance = Matrix{{1.0}};
  SpecBox box{Vector{-std::numeric_limits<double>::infinity()},
              Vector{1.0}};
  stats::Xoshiro256pp rng(16);
  const YieldEstimate est = estimate_yield(m, box, rng, 200000);
  EXPECT_NEAR(est.yield, stats::standard_normal_cdf(1.0), 0.005);
  EXPECT_GT(est.standard_error, 0.0);
  EXPECT_LT(est.standard_error, 0.01);
}

TEST(Yield, IndependentSpecsMultiply) {
  // Two independent N(0,1) with |x| <= 1.96 each: yield = 0.95^2.
  GaussianMoments m;
  m.mean = Vector{0.0, 0.0};
  m.covariance = Matrix::identity(2);
  SpecBox box{Vector{-1.959963985, -1.959963985},
              Vector{1.959963985, 1.959963985}};
  stats::Xoshiro256pp rng(17);
  const YieldEstimate est = estimate_yield(m, box, rng, 200000);
  EXPECT_NEAR(est.yield, 0.9025, 0.005);
}

TEST(Yield, EmpiricalYieldCountsRows) {
  const Matrix samples{{0.5}, {2.0}, {0.1}, {-3.0}};
  SpecBox box{Vector{0.0}, Vector{1.0}};
  const YieldEstimate est = empirical_yield(samples, box);
  EXPECT_DOUBLE_EQ(est.yield, 0.5);
  EXPECT_EQ(est.sample_count, 4u);
}

TEST(Yield, DimensionChecks) {
  GaussianMoments m = toy_moments();
  SpecBox box = SpecBox::unconstrained(3);
  stats::Xoshiro256pp rng(18);
  EXPECT_THROW((void)estimate_yield(m, box, rng, 10), ContractError);
  EXPECT_THROW((void)empirical_yield(Matrix(2, 2), box), ContractError);
}

}  // namespace
}  // namespace bmfusion::core
