// Additive sufficient statistics (n, sum x, sum x x^T) of a sample set.
//
// Lives in the stats layer so both the estimation core (cross-validation
// fold arithmetic) and the circuit Monte Carlo driver (streaming moment
// accumulation without materializing the N x d sample matrix) can share one
// implementation; core re-exports it as core::SufficientStats.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace bmfusion::stats {

/// Additive sufficient statistics (n, sum x, sum x x^T) of a sample set.
///
/// Everything the conjugate normal-Wishart machinery needs from data —
/// sample mean, scatter matrix, likelihood scores — is a function of these
/// three quantities, and they combine by plain addition/subtraction. The
/// cross-validation engine exploits this: each fold's statistics are
/// computed once, and every leave-one-fold-out training set is formed by
/// subtracting the fold from the totals instead of re-scanning raw samples.
/// The Monte Carlo driver exploits the same property in the other
/// direction: per-block accumulators combine by a deterministic pairwise
/// reduction, independent of thread count.
class SufficientStats {
 public:
  SufficientStats() = default;
  explicit SufficientStats(std::size_t dimension);

  /// Accumulates the rows of `samples` (one pass).
  [[nodiscard]] static SufficientStats from_samples(
      const linalg::Matrix& samples);

  /// Rebuilds statistics from their raw components (wire-format parsing,
  /// affine transforms of already-summarized data). Requires count >= 1 and
  /// matching square shapes; throws ContractError otherwise.
  [[nodiscard]] static SufficientStats from_raw(std::size_t count,
                                               linalg::Vector sum,
                                               linalg::Matrix sum_outer);

  /// Folds one sample in; size must match dimension().
  void add(const linalg::Vector& sample);

  /// Empties the set, keeping the dimension and the buffers (no allocation).
  void clear();

  /// Set union / set difference of the underlying sample sets. Subtraction
  /// requires `other` to be a subset (count() >= other.count()).
  SufficientStats& operator+=(const SufficientStats& other);
  SufficientStats& operator-=(const SufficientStats& other);
  [[nodiscard]] friend SufficientStats operator+(SufficientStats a,
                                                 const SufficientStats& b) {
    a += b;
    return a;
  }
  [[nodiscard]] friend SufficientStats operator-(SufficientStats a,
                                                 const SufficientStats& b) {
    a -= b;
    return a;
  }

  /// Exact equality of (count, sum, sum x x^T) — the bitwise-determinism
  /// contract of the streaming Monte Carlo path is checked through this.
  [[nodiscard]] friend bool operator==(const SufficientStats& a,
                                       const SufficientStats& b) {
    return a.count_ == b.count_ && a.sum_ == b.sum_ &&
           a.sum_outer_ == b.sum_outer_;
  }

  [[nodiscard]] std::size_t dimension() const { return sum_.size(); }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] const linalg::Vector& sum() const { return sum_; }

  /// Uncentered second-moment sum x x^T (exposed for determinism checks).
  [[nodiscard]] const linalg::Matrix& sum_outer() const { return sum_outer_; }

  /// Sample mean (paper eq. 10); requires count() >= 1.
  [[nodiscard]] linalg::Vector mean() const;

  /// Scatter matrix S = sum_i (X_i - Xbar)(X_i - Xbar)^T (paper eq. 26),
  /// symmetrized; requires count() >= 1.
  [[nodiscard]] linalg::Matrix scatter() const;

 private:
  std::size_t count_ = 0;
  linalg::Vector sum_;
  linalg::Matrix sum_outer_;  ///< uncentered second moment sum x x^T
};

}  // namespace bmfusion::stats
