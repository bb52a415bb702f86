// Contracts of the cross-validation grid kernel (core/cross_validation.cpp):
// every GridScore it produces is bitwise equal to the straightforward
// per-(grid point, fold) evaluation — map_fuse on the training statistics,
// then log_likelihood(map, held-out fold, LikelihoodFallback{}) — across
// dimensions, fold counts, sample counts, empty folds, the jitter and LDLT
// fallbacks, fully disqualified grids and thread counts; the telemetry
// counters move by the same amounts; and one selection allocates a fixed,
// small number of heap blocks (needs the counting operator-new hook).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/contracts.hpp"
#include "core/cross_validation.hpp"
#include "core/moments.hpp"
#include "core/normal_wishart.hpp"
#include "estimate_bits.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"

namespace bmfusion::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// The reference evaluation: one map_fuse and one fallback log_likelihood
/// per (grid point, scorable fold), with the disqualification rule of the
/// selection (a fold that throws NumericError scores the point -infinity).
struct Oracle {
  std::vector<GridScore> grid;
  std::uint64_t disqualified = 0;
};

Oracle oracle_grid(const GaussianMoments& early,
                   const std::vector<SufficientStats>& fold_stats,
                   const CrossValidationConfig& config) {
  early.validate();  // as the selection does (a jittered probe)
  const double d = static_cast<double>(early.dimension());
  const std::vector<double> kappas =
      log_spaced(config.kappa_min, config.kappa_max, config.kappa_points);
  const std::vector<double> nu_offsets =
      log_spaced(config.nu_offset_min, config.nu_offset_max, config.nu_points);
  SufficientStats totals(early.dimension());
  for (const SufficientStats& fold : fold_stats) {
    if (fold.count() > 0) totals += fold;
  }
  Oracle out;
  out.grid.resize(kappas.size() * nu_offsets.size());
  for (std::size_t index = 0; index < out.grid.size(); ++index) {
    const double kappa0 = kappas[index / nu_offsets.size()];
    const double nu0 = d + nu_offsets[index % nu_offsets.size()];
    double total_loglik = 0.0;
    std::size_t total_count = 0;
    bool valid = true;
    for (const SufficientStats& test : fold_stats) {
      if (test.count() == 0 || test.count() == totals.count()) continue;
      try {
        const GaussianMoments map =
            map_fuse(early, totals - test, kappa0, nu0);
        total_loglik += log_likelihood(map, test, LikelihoodFallback{});
        total_count += test.count();
      } catch (const NumericError&) {
        valid = false;
        break;
      }
    }
    if (!valid) ++out.disqualified;
    out.grid[index].kappa0 = kappa0;
    out.grid[index].nu0 = nu0;
    out.grid[index].score =
        (valid && total_count > 0)
            ? total_loglik / static_cast<double>(total_count)
            : -std::numeric_limits<double>::infinity();
  }
  return out;
}

/// Counters the selection moves; each must move by the same amount under
/// the kernel as under the oracle.
constexpr const char* kScoreCounters[] = {
    "core.loglik.evals",           "core.loglik.fallback_evals",
    "core.loglik.fallback_jitter", "core.loglik.fallback_ldlt",
    "linalg.cholesky.jitter_activations",
};

struct CounterDeltas {
  std::vector<std::uint64_t> before;
  CounterDeltas() {
    for (const char* name : kScoreCounters) {
      before.push_back(counter_total(name));
    }
  }
  [[nodiscard]] std::vector<std::uint64_t> taken() const {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < before.size(); ++i) {
      out.push_back(counter_total(kScoreCounters[i]) - before[i]);
    }
    return out;
  }
};

/// Round-robin fold statistics, as the matrix overload builds them; folds
/// beyond the sample count stay empty.
std::vector<SufficientStats> round_robin_folds(const Matrix& samples,
                                               std::size_t folds) {
  std::vector<SufficientStats> out(folds, SufficientStats(samples.cols()));
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    out[i % folds].add(samples.row(i));
  }
  return out;
}

GaussianMoments random_early(std::size_t d, stats::Xoshiro256pp& rng) {
  Matrix b(d, d);
  GaussianMoments early;
  early.mean = Vector(d);
  for (std::size_t r = 0; r < d; ++r) {
    early.mean[r] = rng.next_uniform(-0.5, 0.5);
    for (std::size_t c = 0; c < d; ++c) b(r, c) = rng.next_uniform(-1.0, 1.0);
  }
  early.covariance = b * b.transposed() / static_cast<double>(d);
  for (std::size_t i = 0; i < d; ++i) early.covariance(i, i) += 0.1;
  early.covariance.symmetrize();
  return early;
}

/// Late samples from a Gaussian that the prior gets partly wrong, so the
/// selection has a real optimum inside the grid.
Matrix late_samples(const GaussianMoments& early, std::size_t n,
                    stats::Xoshiro256pp& rng) {
  Vector mean = early.mean;
  for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += 0.3;
  Matrix cov = early.covariance * 1.5;
  return stats::MultivariateNormal(mean, cov).sample_matrix(rng, n);
}

/// Runs the kernel at `config` and the oracle on the same folds and
/// requires identical bits in every GridScore, in the selection and in the
/// counter movements. Returns the oracle's counter deltas.
std::vector<std::uint64_t> expect_kernel_matches_oracle(
    const GaussianMoments& early, const std::vector<SufficientStats>& folds,
    const CrossValidationConfig& config) {
  const std::uint64_t grid_points_before =
      counter_total("core.cv.grid_points");
  const std::uint64_t disq_before =
      counter_total("core.cv.disqualified_points");
  const CounterDeltas kernel_counters;
  const CrossValidationResult got =
      select_hyperparameters(early, folds, config);
  const std::vector<std::uint64_t> kernel_deltas = kernel_counters.taken();
  const std::uint64_t disq_kernel =
      counter_total("core.cv.disqualified_points") - disq_before;
  EXPECT_EQ(counter_total("core.cv.grid_points") - grid_points_before,
            telemetry::enabled() ? config.kappa_points * config.nu_points : 0u);

  const CounterDeltas oracle_counters;
  const Oracle want = oracle_grid(early, folds, config);
  const std::vector<std::uint64_t> oracle_deltas = oracle_counters.taken();

  EXPECT_EQ(kernel_deltas, oracle_deltas);
  EXPECT_EQ(disq_kernel, telemetry::enabled() ? want.disqualified : 0u);
  EXPECT_EQ(got.grid().size(), want.grid.size());
  if (got.grid().size() == want.grid.size()) {
    for (std::size_t i = 0; i < want.grid.size(); ++i) {
      EXPECT_TRUE(same_bits(&got.grid()[i], &want.grid[i], sizeof(GridScore)))
          << "grid point " << i << ": kernel " << got.grid()[i].score
          << " oracle " << want.grid[i].score;
    }
  }
  const CrossValidationResult best =
      CrossValidationResult::from_grid(want.grid);
  const double got_sel[] = {got.kappa0, got.nu0, got.score};
  const double want_sel[] = {best.kappa0, best.nu0, best.score};
  EXPECT_TRUE(same_bits(got_sel, want_sel, sizeof got_sel));
  return oracle_deltas;
}

TEST(CrossValidation, GridKernelIsBitwiseEqualToMapFuseThenLogLikelihood) {
  stats::Xoshiro256pp rng(20150607);
  // A 6 x 6 grid keeps the sweep fast under the sanitizers; the default
  // 12 x 12 grid runs once below.
  const CrossValidationConfig sweep =
      CrossValidationConfig{}.with_grid(6, 6).with_threads(1);
  for (std::size_t d = 1; d <= 8; ++d) {
    const GaussianMoments early = random_early(d, rng);
    for (std::size_t folds = 2; folds <= 5; ++folds) {
      for (const std::size_t n : {std::size_t{2}, std::size_t{7},
                                  std::size_t{40}, std::size_t{200}}) {
        SCOPED_TRACE(testing::Message()
                     << "d=" << d << " folds=" << folds << " n=" << n);
        const Matrix late = late_samples(early, n, rng);
        expect_kernel_matches_oracle(early, round_robin_folds(late, folds),
                                     sweep);
      }
    }
  }
  const GaussianMoments early = random_early(5, rng);
  expect_kernel_matches_oracle(
      early, round_robin_folds(late_samples(early, 64, rng), 4),
      CrossValidationConfig{}.with_threads(1));
}

TEST(CrossValidation, GridKernelMatchesOracleWithAnEmptyFold) {
  stats::Xoshiro256pp rng(11);
  const GaussianMoments early = random_early(3, rng);
  std::vector<SufficientStats> folds =
      round_robin_folds(late_samples(early, 30, rng), 4);
  folds.insert(folds.begin() + 2, SufficientStats(3));
  expect_kernel_matches_oracle(early, folds,
                               CrossValidationConfig{}.with_threads(1));
}

TEST(CrossValidation, GridKernelMatchesOracleThroughJitterAndLdltFallbacks) {
  // Jitter: a prior with an exactly zero-variance dimension and samples
  // pinned to the prior mean there — every MAP covariance is singular, the
  // clean Cholesky fails and a ridge retry rescues the point.
  GaussianMoments singular;
  singular.mean = Vector{0.0, 0.5};
  singular.covariance = Matrix{{1.0, 0.0}, {0.0, 0.0}};
  stats::Xoshiro256pp rng(5);
  Matrix pinned(12, 2);
  for (std::size_t r = 0; r < pinned.rows(); ++r) {
    pinned(r, 0) = rng.next_uniform(-1.0, 1.0);
    pinned(r, 1) = singular.mean[1];
  }
  const std::vector<std::uint64_t> jitter = expect_kernel_matches_oracle(
      singular, round_robin_folds(pinned, 4),
      CrossValidationConfig{}.with_grid(5, 5).with_threads(1));

  // LDLT: a zero prior covariance and samples near 1e-160, so every MAP
  // covariance is subnormal and singular. The ridge (1e-12 of the matrix
  // scale) underflows to zero, jitter gives up at once, and the clamped
  // LDLT scores the point.
  GaussianMoments zero;
  zero.mean = Vector{0.0, 0.0};
  zero.covariance = Matrix(2, 2);
  Matrix tiny(12, 2);
  for (std::size_t r = 0; r < tiny.rows(); ++r) {
    tiny(r, 0) = rng.next_uniform(1.0, 2.0) * 1e-160;
    tiny(r, 1) = 0.0;
  }
  const std::vector<std::uint64_t> ldlt = expect_kernel_matches_oracle(
      zero, round_robin_folds(tiny, 4),
      CrossValidationConfig{}.with_grid(5, 5).with_threads(1));

  if (telemetry::enabled()) {
    EXPECT_GT(jitter[2], 0u) << "no point went through the jitter fallback";
    EXPECT_GT(ldlt[3], 0u) << "no point went through the LDLT fallback";
  }
}

TEST(CrossValidation, FullyDisqualifiedGridStillThrowsNumericError) {
  // Outer products of 1e160 overflow, so every training scatter is
  // non-finite and every fit fails the whole fallback chain.
  GaussianMoments early;
  early.mean = Vector{0.0, 0.1};
  early.covariance = Matrix::identity(2);
  Matrix huge(8, 2);
  for (std::size_t r = 0; r < huge.rows(); ++r) {
    huge(r, 0) = 1e160;
    huge(r, 1) = -1e160;
  }
  const std::vector<SufficientStats> folds = round_robin_folds(huge, 4);
  const CrossValidationConfig config =
      CrossValidationConfig{}.with_grid(4, 4).with_threads(1);

  const std::uint64_t disq_before =
      counter_total("core.cv.disqualified_points");
  const CounterDeltas kernel_counters;
  EXPECT_THROW((void)select_hyperparameters(early, folds, config),
               NumericError);
  const std::vector<std::uint64_t> kernel_deltas = kernel_counters.taken();
  const std::uint64_t disq_kernel =
      counter_total("core.cv.disqualified_points") - disq_before;

  const CounterDeltas oracle_counters;
  const Oracle want = oracle_grid(early, folds, config);
  EXPECT_EQ(kernel_deltas, oracle_counters.taken());
  EXPECT_EQ(want.disqualified, want.grid.size());
  EXPECT_EQ(disq_kernel, telemetry::enabled() ? want.grid.size() : 0u);
  EXPECT_THROW((void)CrossValidationResult::from_grid(want.grid),
               NumericError);
}

TEST(CrossValidation, GridKernelIsThreadCountInvariant) {
  stats::Xoshiro256pp rng(77);
  const GaussianMoments early = random_early(5, rng);
  const std::vector<SufficientStats> folds =
      round_robin_folds(late_samples(early, 48, rng), 4);
  const CrossValidationResult one = select_hyperparameters(
      early, folds, CrossValidationConfig{}.with_threads(1));
  const CrossValidationResult four = select_hyperparameters(
      early, folds, CrossValidationConfig{}.with_threads(4));
  ASSERT_EQ(one.grid().size(), four.grid().size());
  EXPECT_TRUE(same_bits(one.grid().data(), four.grid().data(),
                        one.grid().size() * sizeof(GridScore)));
  expect_kernel_matches_oracle(early, folds,
                               CrossValidationConfig{}.with_threads(4));
}

TEST(CrossValidation, OneSelectionAllocatesFewerThan256Blocks) {
  // d = 5, Q = 4, the default 12 x 12 grid on one thread: the per-fold
  // summaries and one workspace per grid row, nothing per (point, fold).
  stats::Xoshiro256pp rng(2015);
  const GaussianMoments early = random_early(5, rng);
  const std::vector<SufficientStats> folds =
      round_robin_folds(late_samples(early, 64, rng), 4);
  const CrossValidationConfig config = CrossValidationConfig{}.with_threads(1);
  (void)select_hyperparameters(early, folds, config);  // warm lazy state
  const std::uint64_t before = common::allocation_count();
  const CrossValidationResult result =
      select_hyperparameters(early, folds, config);
  const std::uint64_t allocations = common::allocation_count() - before;
  EXPECT_LT(allocations, 256u) << "one selection made " << allocations
                               << " heap allocations";
  EXPECT_EQ(result.grid().size(), 144u);
}

}  // namespace
}  // namespace bmfusion::core
