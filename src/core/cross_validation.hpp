// Two-dimensional cross validation over (nu0, kappa0) — paper Section 4.2.
//
// For every grid point the BMF flow runs Q times (Q-fold split of the
// late-stage samples); each run scores the held-out fold with the Gaussian
// log-likelihood (eq. 9) under the MAP moments fitted on the training folds.
// The grid point with the best average held-out score wins.
//
// The engine works on sufficient statistics. Cost model of one selection:
//   * once per selection, O(Q d^2): every leave-one-fold-out training set
//     is the totals minus the fold, and each fold is reduced to the
//     (count, mean, scatter) of its training and held-out sides;
//   * once per (grid point, fold), O(d^3) with no heap allocation: the MAP
//     fuse (map_fuse_into), a clean Cholesky and the held-out score
//     (log_likelihood_from_summary), all written into one workspace that a
//     sweep task reuses across its points and folds.
// Neither term depends on the sample count. A fit whose clean Cholesky
// fails is handed to log_likelihood(map, fold, LikelihoodFallback), whose
// jitter retries and clamped LDLT decide whether it scores or disqualifies
// the point. Every score is bitwise equal to map_fuse followed by that
// log_likelihood call. Grid rows (one kappa0 each) are evaluated in
// parallel on the persistent thread pool (common/parallel.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "core/moments.hpp"
#include "linalg/matrix.hpp"

namespace bmfusion::core {

/// Grid + fold configuration. The defaults mirror the paper: hyper-
/// parameters searched from 1 to 1000 (log-spaced) with four folds.
///
/// Fields may be assigned directly or chained fluently:
///   auto cfg = CrossValidationConfig{}.with_folds(5).with_grid(8, 8);
/// Validation is centralized in validate(), which every search entry point
/// calls before touching the grid.
struct CrossValidationConfig {
  std::size_t folds = 4;          ///< Q
  std::size_t kappa_points = 12;  ///< grid resolution in kappa0
  std::size_t nu_points = 12;     ///< grid resolution in nu0
  double kappa_min = 1.0;
  double kappa_max = 1000.0;
  /// nu0 is gridded as d + offset so every candidate satisfies nu0 > d.
  double nu_offset_min = 1.0;
  double nu_offset_max = 1000.0;
  /// Worker threads for the grid sweep; 0 means default_thread_count().
  std::size_t threads = 0;

  CrossValidationConfig& with_folds(std::size_t q) {
    folds = q;
    return *this;
  }
  CrossValidationConfig& with_grid(std::size_t kappa, std::size_t nu) {
    kappa_points = kappa;
    nu_points = nu;
    return *this;
  }
  CrossValidationConfig& with_kappa_range(double lo, double hi) {
    kappa_min = lo;
    kappa_max = hi;
    return *this;
  }
  CrossValidationConfig& with_nu_offset_range(double lo, double hi) {
    nu_offset_min = lo;
    nu_offset_max = hi;
    return *this;
  }
  CrossValidationConfig& with_threads(std::size_t count) {
    threads = count;
    return *this;
  }

  /// Throws ConfigError (a ContractError subtype) when the grid, ranges or
  /// fold count are malformed. Requires folds >= 2 so that a config which
  /// passes validate() never throws downstream in the fold-based search.
  void validate() const;
};

/// Which hyper-parameter selection strategy an estimator runs. Streaming
/// snapshots downgrade kCrossValidation to kEvidence automatically when the
/// accumulated statistics cannot sustain a fold split (fewer than two
/// non-empty folds, or a single pre-summarized batch).
enum class HyperSelection {
  kCrossValidation,  ///< paper Section 4.2 Q-fold CV (needs >= 2 usable folds)
  kEvidence,         ///< closed-form marginal likelihood (works from n = 1)
};

/// One evaluated grid point.
struct GridScore {
  double kappa0 = 0.0;
  double nu0 = 0.0;
  double score = 0.0;  ///< mean per-sample held-out log-likelihood
};

/// Outcome of the search: the winning hyper-parameters plus the full
/// evaluated grid (row-major, kappa outer) behind an accessor.
class CrossValidationResult {
 public:
  double kappa0 = 0.0;  ///< selected
  double nu0 = 0.0;     ///< selected
  double score = 0.0;   ///< held-out score of the selected point

  /// Builds a result from an evaluated grid by scanning for the best score
  /// (first strictly-greater entry wins, matching sequential evaluation
  /// order). Requires a non-empty grid. Throws NumericError("... all grid
  /// points degenerate ...") when every entry carries score == -infinity,
  /// so a fully disqualified search fails loudly at selection time instead
  /// of handing zero hyper-parameters to a later fuse step.
  [[nodiscard]] static CrossValidationResult from_grid(
      std::vector<GridScore> grid);

  /// Every evaluated grid point, row-major with kappa as the outer axis
  /// (index = kappa_index * nu_points + nu_index). Disqualified points
  /// carry score == -infinity.
  [[nodiscard]] const std::vector<GridScore>& grid() const { return grid_; }

 private:
  std::vector<GridScore> grid_;
};

/// Log-spaced grid helper (inclusive endpoints).
[[nodiscard]] std::vector<double> log_spaced(double lo, double hi,
                                             std::size_t points);

/// Runs the 2-D Q-fold search. `early_scaled` is the early-stage prior
/// knowledge and `late_scaled` the late-stage samples, both already in the
/// shifted/scaled space of Section 4.1. Requires at least 2 samples; the
/// fold count is reduced to the sample count when needed.
[[nodiscard]] CrossValidationResult select_hyperparameters(
    const GaussianMoments& early_scaled, const linalg::Matrix& late_scaled,
    const CrossValidationConfig& config = {});

/// Fold-statistics core of the search: one SufficientStats per held-out
/// fold, already in the scaled space. The matrix overload builds its folds
/// (round-robin over rows) and delegates here, so batch estimation and the
/// streaming snapshot path share one selection engine and one fallback
/// chain. Folds with zero samples are skipped during scoring; at least two
/// folds must be non-empty (a single usable fold disqualifies every grid
/// point, which surfaces as the NumericError from from_grid).
[[nodiscard]] CrossValidationResult select_hyperparameters(
    const GaussianMoments& early_scaled,
    const std::vector<SufficientStats>& fold_stats,
    const CrossValidationConfig& config = {});

/// Empirical-Bayes alternative to the paper's Q-fold cross validation:
/// scores every grid point with the *closed-form* marginal likelihood
/// (model evidence) of the normal-Wishart model and picks the maximum.
/// No folds are needed, so this works down to a single sample and costs
/// one posterior update per grid point instead of Q. The score field holds
/// the per-sample log evidence. (Library extension beyond the paper;
/// compared against CV in bench/ablation_evidence.)
[[nodiscard]] CrossValidationResult select_hyperparameters_evidence(
    const GaussianMoments& early_scaled, const linalg::Matrix& late_scaled,
    const CrossValidationConfig& config = {});

/// Evidence selection fed from precomputed sufficient statistics. The data
/// enters the marginal likelihood only through (n, sum, scatter), so this
/// overload is the one the streaming snapshot path calls; the matrix
/// overload summarizes its samples and delegates here.
[[nodiscard]] CrossValidationResult select_hyperparameters_evidence(
    const GaussianMoments& early_scaled, const SufficientStats& stats,
    const CrossValidationConfig& config = {});

}  // namespace bmfusion::core
