// Cross-module property suites: parameterized invariants that hold for
// every size/seed in a sweep, complementing the per-module example tests.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "circuit/dc.hpp"
#include "circuit/spice.hpp"
#include "common/contracts.hpp"
#include "core/bmf_estimator.hpp"
#include "core/mle.hpp"
#include "core/normal_wishart.hpp"
#include "core/shift_scale.hpp"
#include "dsp/fft.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "stats/moments.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"

namespace bmfusion {
namespace {

using linalg::Matrix;
using linalg::Vector;

Matrix random_spd(std::size_t d, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  Matrix b(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) b(i, j) = rng.next_uniform(-1, 1);
  }
  Matrix a = b * b.transposed();
  for (std::size_t i = 0; i < d; ++i) a(i, i) += static_cast<double>(d);
  a.symmetrize();
  return a;
}

// ---------------------------------------------- normal-Wishart conjugacy

/// Property: for every dimension and sample count, the posterior
/// hyper-parameters follow eqs. 24-28 exactly, the MAP covariance is SPD,
/// and splitting the data in two and updating twice equals one batch
/// update.
class ConjugacySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ConjugacySweep, PosteriorInvariants) {
  const auto [d, n] = GetParam();
  core::GaussianMoments early;
  early.mean = Vector(d, 0.3);
  early.covariance = random_spd(d, 11 * d + n);
  const double kappa0 = 2.5, nu0 = static_cast<double>(d) + 4.0;
  const core::NormalWishart prior =
      core::NormalWishart::from_early_stage(early, kappa0, nu0);

  stats::Xoshiro256pp rng(100 * d + n);
  const Matrix samples =
      stats::MultivariateNormal(early.mean, early.covariance)
          .sample_matrix(rng, n);

  const core::NormalWishart post = prior.posterior(samples);
  EXPECT_DOUBLE_EQ(post.kappa0(), kappa0 + static_cast<double>(n));
  EXPECT_DOUBLE_EQ(post.nu0(), nu0 + static_cast<double>(n));
  EXPECT_TRUE(
      linalg::Cholesky::is_positive_definite(post.map_estimate().covariance));

  if (n >= 2) {
    const std::size_t split = n / 2;
    Matrix first(split, d), second(n - split, d);
    for (std::size_t i = 0; i < split; ++i) first.set_row(i, samples.row(i));
    for (std::size_t i = split; i < n; ++i) {
      second.set_row(i - split, samples.row(i));
    }
    const core::NormalWishart sequential =
        prior.posterior(first).posterior(second);
    EXPECT_TRUE(approx_equal(sequential.mu0(), post.mu0(), 1e-9));
    EXPECT_TRUE(approx_equal(sequential.t0(), post.t0(),
                             1e-7 * (1.0 + post.t0().norm_max())));
  }
}

TEST_P(ConjugacySweep, EvidenceFactorizesOverChainRule) {
  // p(D) = p(D1) p(D2 | D1): the evidence of the whole equals the prior
  // evidence of the first half times the posterior evidence of the second.
  const auto [d, n] = GetParam();
  if (n < 2) GTEST_SKIP();
  core::GaussianMoments early;
  early.mean = Vector(d, -0.2);
  early.covariance = random_spd(d, 13 * d + n);
  const core::NormalWishart prior = core::NormalWishart::from_early_stage(
      early, 3.0, static_cast<double>(d) + 6.0);
  stats::Xoshiro256pp rng(200 * d + n);
  const Matrix samples =
      stats::MultivariateNormal(early.mean, early.covariance)
          .sample_matrix(rng, n);
  const std::size_t split = n / 2;
  Matrix first(split, d), second(n - split, d);
  for (std::size_t i = 0; i < split; ++i) first.set_row(i, samples.row(i));
  for (std::size_t i = split; i < n; ++i) {
    second.set_row(i - split, samples.row(i));
  }
  const double whole = prior.log_marginal_likelihood(samples);
  const double chained = prior.log_marginal_likelihood(first) +
                         prior.posterior(first).log_marginal_likelihood(
                             second);
  EXPECT_NEAR(whole, chained, 1e-8 * (1.0 + std::fabs(whole)));
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndCounts, ConjugacySweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8),
                       ::testing::Values<std::size_t>(1, 2, 5, 16, 64)));

// --------------------------------------------------- shift-scale group law

class ShiftScaleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShiftScaleSweep, MapEstimationCommutesWithAffineReparametrization) {
  // Fusing in any affinely transformed coordinate system and mapping back
  // gives the same moments (the equivariance that makes Sec. 4.1's scaling
  // a pure numerical-conditioning choice).
  const std::size_t d = GetParam();
  core::GaussianMoments early;
  early.mean = Vector(d, 1.0);
  early.covariance = random_spd(d, 31 * d);
  stats::Xoshiro256pp rng(17 * d);
  const Matrix samples =
      stats::MultivariateNormal(early.mean, early.covariance)
          .sample_matrix(rng, 12);

  Vector shift(d), scale(d);
  for (std::size_t i = 0; i < d; ++i) {
    shift[i] = rng.next_uniform(-5, 5);
    scale[i] = rng.next_uniform(0.1, 10.0);
  }
  const core::ShiftScale t(shift, scale);

  const core::GaussianMoments direct =
      core::BmfEstimator::fuse_at(early, samples, 4.0,
                                  static_cast<double>(d) + 9.0);
  const core::GaussianMoments transformed = t.invert(core::BmfEstimator::fuse_at(
      t.apply(early), t.apply(samples), 4.0, static_cast<double>(d) + 9.0));
  EXPECT_TRUE(approx_equal(direct.mean, transformed.mean,
                           1e-9 * (1.0 + direct.mean.norm_inf())));
  EXPECT_TRUE(approx_equal(direct.covariance, transformed.covariance,
                           1e-8 * (1.0 + direct.covariance.norm_max())));
}

INSTANTIATE_TEST_SUITE_P(Dims, ShiftScaleSweep,
                         ::testing::Values(1, 2, 4, 7));

// ------------------------------------------------------------ fft sweeps

class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeSweep, RoundTripAndParseval) {
  const std::size_t n = GetParam();
  stats::Xoshiro256pp rng(n);
  std::vector<dsp::Complex> x(n);
  double energy = 0.0;
  for (auto& c : x) {
    c = dsp::Complex{rng.next_uniform(-1, 1), rng.next_uniform(-1, 1)};
    energy += std::norm(c);
  }
  const auto spec = dsp::fft(x);
  double spec_energy = 0.0;
  for (const auto& c : spec) spec_energy += std::norm(c);
  EXPECT_NEAR(spec_energy / static_cast<double>(n), energy,
              1e-9 * (1.0 + energy));
  const auto back = dsp::ifft(spec);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(2, 4, 16, 128, 1024, 8192));

// ------------------------------------------------- spice round-trip sweep

class SpiceRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SpiceRoundTripSweep, RandomRcNetworkSurvivesRoundTrip) {
  // Random connected RC network with a source: write -> parse -> same DC
  // solution at every node.
  stats::Xoshiro256pp rng(GetParam());
  circuit::Netlist net;
  const std::size_t n_nodes = 3 + static_cast<std::size_t>(rng.next_below(6));
  std::vector<circuit::NodeId> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(net.node("n" + std::to_string(i)));
  }
  net.add_voltage_source("V0", nodes[0], circuit::kGround,
                         rng.next_uniform(0.5, 2.0));
  // Spanning chain keeps everything connected; extra random edges.
  for (std::size_t i = 1; i < n_nodes; ++i) {
    net.add_resistor("Rc" + std::to_string(i), nodes[i - 1], nodes[i],
                     rng.next_uniform(100.0, 10e3));
  }
  for (int k = 0; k < 4; ++k) {
    const auto a = static_cast<std::size_t>(rng.next_below(n_nodes));
    const auto b = static_cast<std::size_t>(rng.next_below(n_nodes));
    if (a == b) continue;
    net.add_resistor("Rx" + std::to_string(k), nodes[a], nodes[b],
                     rng.next_uniform(1e3, 100e3));
  }
  net.add_capacitor("C0", nodes[n_nodes - 1], circuit::kGround,
                    rng.next_uniform(1e-13, 1e-11));

  const circuit::Netlist back =
      circuit::parse_spice_string(circuit::to_spice_string(net, "prop"));
  const circuit::OperatingPoint op1 = circuit::DcSolver().solve(net);
  const circuit::OperatingPoint op2 = circuit::DcSolver().solve(back);
  for (circuit::NodeId id = 1; id <= net.node_count(); ++id) {
    EXPECT_NEAR(op1.voltage(id),
                op2.voltage(back.find_node(net.node_name(id))), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpiceRoundTripSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------- estimator sweeps

class MleConsistencySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MleConsistencySweep, ErrorShrinksAsSqrtN) {
  // Property: quadrupling n roughly halves the MLE mean error (averaged
  // over repetitions).
  const std::size_t n = GetParam();
  core::GaussianMoments truth;
  truth.mean = Vector{0.5, -0.5, 1.0};
  truth.covariance = random_spd(3, 77);
  double err_n = 0.0, err_4n = 0.0;
  for (std::uint64_t rep = 0; rep < 24; ++rep) {
    stats::Xoshiro256pp rng(1000 + rep * 17 + n);
    const stats::MultivariateNormal mvn(truth.mean, truth.covariance);
    err_n += core::mean_error(
        core::estimate_mle(mvn.sample_matrix(rng, n)).mean, truth.mean);
    err_4n += core::mean_error(
        core::estimate_mle(mvn.sample_matrix(rng, 4 * n)).mean, truth.mean);
  }
  EXPECT_NEAR(err_n / err_4n, 2.0, 0.65);
}

INSTANTIATE_TEST_SUITE_P(Counts, MleConsistencySweep,
                         ::testing::Values(8, 32, 128));

// ------------------------------------------------------ eigen/chol sweep

class SpdFactorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpdFactorSweep, SvdOfSpdMatchesEigenAndCholesky) {
  const std::size_t d = GetParam();
  const Matrix a = random_spd(d, 300 + d);
  const linalg::JacobiEigenSolver eig(a);
  // For SPD matrices the singular values are the eigenvalues, all positive,
  // and det = prod(lambda) = exp(Cholesky log-det).
  double log_det = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    ASSERT_GT(eig.eigenvalues()[i], 0.0);
    log_det += std::log(eig.eigenvalues()[i]);
  }
  EXPECT_NEAR(log_det, linalg::Cholesky(a).log_determinant(),
              1e-8 * (1.0 + std::fabs(log_det)));
}

INSTANTIATE_TEST_SUITE_P(Dims, SpdFactorSweep,
                         ::testing::Values(1, 2, 3, 5, 9, 16));

}  // namespace
}  // namespace bmfusion
