#include "core/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "core/normal_wishart.hpp"
#include "linalg/cholesky.hpp"
#include "log/log.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

/// One scorable fold, summarized once per selection: its training set
/// (totals minus the fold) and the held-out fold itself, each as the
/// (count, mean, scatter) triple the fuse and the score consume.
struct FoldSummary {
  std::size_t index = 0;  ///< position in the caller's fold list
  double train_n = 0.0;
  Vector train_mean;
  Matrix train_scatter;
  std::size_t test_count = 0;
  Vector test_mean;
  Matrix test_scatter;
};

/// Working storage one grid-sweep task reuses across its points and folds:
/// fused moments, their Cholesky factor and the triangular-solve buffer.
struct GridWorkspace {
  GaussianMoments fused;
  linalg::Cholesky chol;
  Vector work;
};

/// Mean per-sample held-out log-likelihood of one (kappa0, nu0) point over
/// the scorable folds; -infinity when a fold's fit is not factorizable even
/// through the fallback chain, or when no fold is scorable. Equal bit for
/// bit to map_fuse followed by log_likelihood(map, test, fallback) per
/// fold: the clean Cholesky attempt runs on the workspace, and a fit that
/// fails it goes through that very log_likelihood call.
double score_grid_point(const GaussianMoments& early,
                        const std::vector<SufficientStats>& fold_stats,
                        const std::vector<FoldSummary>& summaries,
                        double kappa0, double nu0,
                        const LikelihoodFallback& fallback,
                        GridWorkspace& ws) {
  double total_loglik = 0.0;
  std::size_t total_count = 0;
  std::uint64_t clean_scores = 0;
  bool valid = true;
  for (const FoldSummary& fold : summaries) {
    map_fuse_into(early, fold.train_n, fold.train_mean, fold.train_scatter,
                  kappa0, nu0, ws.fused);
    if (ws.chol.try_factor(ws.fused.covariance)) {
      ++clean_scores;
      total_loglik += log_likelihood_from_summary(
          ws.chol, ws.fused.mean, static_cast<double>(fold.test_count),
          fold.test_mean, fold.test_scatter, ws.work);
    } else {
      try {
        total_loglik +=
            log_likelihood(ws.fused, fold_stats[fold.index], fallback);
      } catch (const NumericError&) {
        valid = false;  // degenerate fit: disqualify this grid point
        BMF_LOG_DEBUG("cv fold disqualified grid point",
                      log::f("kappa0", kappa0), log::f("nu0", nu0),
                      log::f("fold", fold.index),
                      log::f("folds", fold_stats.size()));
        break;
      }
    }
    total_count += fold.test_count;
  }
  // The clean scores count as the fallback overload's evaluations they
  // replace; handed-off fits count themselves.
  BMF_COUNTER_ADD("core.loglik.evals", clean_scores);
  BMF_COUNTER_ADD("core.loglik.fallback_evals", clean_scores);
  if (!valid) {
    BMF_COUNTER_ADD("core.cv.disqualified_points", 1);
    return -std::numeric_limits<double>::infinity();
  }
  return total_count > 0 ? total_loglik / static_cast<double>(total_count)
                         : -std::numeric_limits<double>::infinity();
}

}  // namespace

void CrossValidationConfig::validate() const {
  // folds >= 2 is what every fold-based consumer ultimately needs; checking
  // it here keeps the invariant that a config which passes validate() never
  // throws downstream. (The evidence selector ignores folds entirely.)
  BMFUSION_CONFIG_REQUIRE(folds >= 2,
                          "cross validation config needs folds >= 2");
  BMFUSION_CONFIG_REQUIRE(kappa_points >= 2 && nu_points >= 2,
                          "hyper-parameter grid needs >= 2 points per axis");
  BMFUSION_CONFIG_REQUIRE(kappa_min > 0.0 && kappa_max > kappa_min,
                          "kappa range needs 0 < min < max");
  BMFUSION_CONFIG_REQUIRE(nu_offset_min > 0.0 && nu_offset_max > nu_offset_min,
                          "nu offset range needs 0 < min < max");
}

std::vector<double> log_spaced(double lo, double hi, std::size_t points) {
  BMFUSION_REQUIRE(lo > 0.0 && hi > lo, "log grid needs 0 < lo < hi");
  BMFUSION_REQUIRE(points >= 2, "log grid needs >= 2 points");
  std::vector<double> grid(points);
  const double log_lo = std::log(lo);
  const double log_hi = std::log(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    grid[i] = std::exp(log_lo + t * (log_hi - log_lo));
  }
  return grid;
}

CrossValidationResult CrossValidationResult::from_grid(
    std::vector<GridScore> grid) {
  BMFUSION_REQUIRE(!grid.empty(), "cross validation result needs a grid");
  CrossValidationResult result;
  result.score = -std::numeric_limits<double>::infinity();
  for (const GridScore& gs : grid) {
    if (gs.score > result.score) {
      result.score = gs.score;
      result.kappa0 = gs.kappa0;
      result.nu0 = gs.nu0;
    }
  }
  if (!std::isfinite(result.score)) {
    // Every candidate was disqualified. Failing here, at selection time,
    // beats handing zero-valued hyper-parameters to a later fuse_at call.
    throw NumericError(
        "cross validation: all grid points degenerate (every candidate was "
        "disqualified during scoring)",
        ErrorContext{}
            .with_operation("cv-select")
            .with_detail("grid_points=" + std::to_string(grid.size())));
  }
  result.grid_ = std::move(grid);
  BMF_LOG_INFO("cv selected hyper-parameters", log::f("kappa0", result.kappa0),
               log::f("nu0", result.nu0), log::f("score", result.score),
               log::f("grid_points", result.grid_.size()));
  return result;
}

CrossValidationResult select_hyperparameters(
    const GaussianMoments& early_scaled, const Matrix& late_scaled,
    const CrossValidationConfig& config) {
  early_scaled.validate();
  config.validate();
  BMFUSION_REQUIRE(late_scaled.cols() == early_scaled.dimension(),
                   "late samples must match the early-stage dimension");
  BMFUSION_REQUIRE(late_scaled.rows() >= 2,
                   "cross validation needs >= 2 late-stage samples");

  // Summarize every fold once (round-robin split, identical for every grid
  // point as in Fig. 2(b)); the fold-statistics core below never touches
  // the raw samples again. The streaming snapshot path enters the same core
  // with fold statistics accumulated one sample at a time.
  const std::size_t folds = std::min(config.folds, late_scaled.rows());
  std::vector<SufficientStats> test_stats(
      folds, SufficientStats(early_scaled.dimension()));
  for (std::size_t i = 0; i < late_scaled.rows(); ++i) {
    test_stats[i % folds].add(late_scaled.row(i));
  }
  return select_hyperparameters(early_scaled, test_stats, config);
}

CrossValidationResult select_hyperparameters(
    const GaussianMoments& early_scaled,
    const std::vector<SufficientStats>& fold_stats,
    const CrossValidationConfig& config) {
  early_scaled.validate();
  config.validate();
  BMFUSION_REQUIRE(!fold_stats.empty(),
                   "cross validation needs >= 1 fold statistic");
  std::size_t total_samples = 0;
  for (const SufficientStats& fold : fold_stats) {
    if (fold.count() == 0) continue;
    BMFUSION_REQUIRE(fold.dimension() == early_scaled.dimension(),
                     "fold statistics must match the early-stage dimension");
    total_samples += fold.count();
  }
  BMFUSION_REQUIRE(total_samples >= 2,
                   "cross validation needs >= 2 late-stage samples");

  const std::size_t folds = fold_stats.size();
  const double d = static_cast<double>(early_scaled.dimension());
  const std::vector<double> kappas =
      log_spaced(config.kappa_min, config.kappa_max, config.kappa_points);
  const std::vector<double> nu_offsets = log_spaced(
      config.nu_offset_min, config.nu_offset_max, config.nu_points);

  // Summarize every scorable fold once: each leave-one-fold-out training set
  // is the totals minus the held-out fold (O(folds) stats arithmetic,
  // however many samples they summarize), and both sides enter the grid
  // only through (count, mean, scatter). An empty fold (possible only on
  // the streaming path) or one whose training set is empty is skipped.
  SufficientStats totals(early_scaled.dimension());
  for (const SufficientStats& fold : fold_stats) {
    if (fold.count() > 0) totals += fold;
  }
  std::vector<FoldSummary> summaries;
  summaries.reserve(folds);
  for (std::size_t q = 0; q < folds; ++q) {
    const SufficientStats& test = fold_stats[q];
    if (test.count() == 0 || test.count() == totals.count()) continue;
    const SufficientStats train = totals - test;
    summaries.push_back(FoldSummary{
        q, static_cast<double>(train.count()), train.mean(), train.scatter(),
        test.count(), test.mean(), test.scatter()});
  }

  // Sweep the grid in parallel, one kappa row per task so a row's nu sweep
  // reuses one workspace across its points and folds; index = kappa_index *
  // nu_points + nu_index keeps the table row-major with kappa outer,
  // matching sequential order. A fit whose clean Cholesky fails is handed
  // to the fallback chain of log_likelihood (ridge-jitter retries, then
  // clamped LDLT) so a near-singular fold downgrades gracefully instead of
  // silently disqualifying the grid point; only genuinely indefinite fits
  // still disqualify.
  const LikelihoodFallback score_fallback{};
  std::vector<GridScore> grid(kappas.size() * nu_offsets.size());
  BMF_SPAN("cv_select");
  BMF_COUNTER_ADD("core.cv.selections", 1);
  BMF_COUNTER_ADD("core.cv.grid_points", grid.size());
  parallel_for(
      kappas.size(),
      [&](std::size_t kappa_index) {
        GridWorkspace ws;
        for (std::size_t nu_index = 0; nu_index < nu_offsets.size();
             ++nu_index) {
          BMF_SCOPED_TIMER_US("core.cv.grid_point_us");
          const double kappa0 = kappas[kappa_index];
          const double nu0 = d + nu_offsets[nu_index];
          GridScore& gs = grid[kappa_index * nu_offsets.size() + nu_index];
          gs.kappa0 = kappa0;
          gs.nu0 = nu0;
          gs.score = score_grid_point(early_scaled, fold_stats, summaries,
                                      kappa0, nu0, score_fallback, ws);
        }
      },
      config.threads);

  // from_grid throws a typed NumericError when every point was disqualified.
  return CrossValidationResult::from_grid(std::move(grid));
}

CrossValidationResult select_hyperparameters_evidence(
    const GaussianMoments& early_scaled, const Matrix& late_scaled,
    const CrossValidationConfig& config) {
  BMFUSION_REQUIRE(late_scaled.rows() >= 1,
                   "evidence selection needs >= 1 late-stage sample");
  // The marginal likelihood touches the data only through its sufficient
  // statistics; summarize once and delegate to the stats core shared with
  // the streaming snapshot path.
  return select_hyperparameters_evidence(
      early_scaled, SufficientStats::from_samples(late_scaled), config);
}

CrossValidationResult select_hyperparameters_evidence(
    const GaussianMoments& early_scaled, const SufficientStats& stats,
    const CrossValidationConfig& config) {
  early_scaled.validate();
  config.validate();
  BMFUSION_REQUIRE(stats.dimension() == early_scaled.dimension(),
                   "late statistics must match the early-stage dimension");
  BMFUSION_REQUIRE(stats.count() >= 1,
                   "evidence selection needs >= 1 late-stage sample");

  const double d = static_cast<double>(early_scaled.dimension());
  const double n = static_cast<double>(stats.count());
  const std::vector<double> kappas =
      log_spaced(config.kappa_min, config.kappa_max, config.kappa_points);
  const std::vector<double> nu_offsets = log_spaced(
      config.nu_offset_min, config.nu_offset_max, config.nu_points);

  // Shared across the whole grid: the prior scale enters only through
  // Lambda_E.
  const Matrix lambda_e =
      linalg::Cholesky(early_scaled.covariance).inverse();

  std::vector<GridScore> grid(kappas.size() * nu_offsets.size());
  BMF_SPAN("cv_select_evidence");
  BMF_COUNTER_ADD("core.cv.selections", 1);
  BMF_COUNTER_ADD("core.cv.grid_points", grid.size());
  parallel_for(
      grid.size(),
      [&](std::size_t index) {
        BMF_SCOPED_TIMER_US("core.cv.grid_point_us");
        BMF_COUNTER_ADD("core.cv.evidence_evals", 1);
        const double kappa0 = kappas[index / nu_offsets.size()];
        const double nu0 = d + nu_offsets[index % nu_offsets.size()];
        GridScore& gs = grid[index];
        gs.kappa0 = kappa0;
        gs.nu0 = nu0;
        try {
          // Equivalent to NormalWishart::from_early_stage (eq. 20) with the
          // early-stage inversion hoisted out of the grid sweep.
          const NormalWishart prior(early_scaled.mean, kappa0, nu0,
                                    lambda_e / (nu0 - d));
          gs.score = prior.log_marginal_likelihood(stats) / n;
        } catch (const NumericError&) {
          gs.score = -std::numeric_limits<double>::infinity();
          BMF_LOG_DEBUG("cv evidence disqualified grid point",
                        log::f("kappa0", kappa0), log::f("nu0", nu0));
        }
      },
      config.threads);

  // from_grid throws a typed NumericError when every point was disqualified.
  return CrossValidationResult::from_grid(std::move(grid));
}

}  // namespace bmfusion::core
