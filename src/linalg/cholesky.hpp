// Cholesky (LL^T) factorization of symmetric positive-definite matrices.
//
// This is the workhorse of the whole project: multivariate normal log-pdfs,
// Wishart sampling (Bartlett), covariance inversion in the MAP update, and
// held-out likelihood scoring in cross validation all go through it.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace bmfusion::linalg {

/// Escalating ridge-jitter retry policy for Cholesky::factor_with_jitter.
///
/// When the clean factorization fails (a pivot collapses to or below zero,
/// typically from rounding on a semi-definite matrix), the matrix is retried
/// as A + ridge * I with ridge = scale_at(k) * max(norm_max(A), 1). The
/// defaults make three capped attempts at 1e-12, 1e-10 and 1e-8 times the
/// matrix scale — enough to absorb cancellation noise, small enough that a
/// genuinely indefinite matrix still fails.
struct CholeskyJitter {
  std::size_t attempts = 3;    ///< jittered retries after the clean attempt
  double first_scale = 1e-12;  ///< initial ridge, relative to norm_max(A)
  double growth = 100.0;       ///< escalation factor per attempt

  CholeskyJitter& with_attempts(std::size_t count) {
    attempts = count;
    return *this;
  }
  CholeskyJitter& with_scales(double first, double factor) {
    first_scale = first;
    growth = factor;
    return *this;
  }

  /// Relative ridge of attempt `k` (0-based): first_scale * growth^k.
  [[nodiscard]] double scale_at(std::size_t k) const;
};

/// Lower-triangular Cholesky factorization A = L L^T.
///
/// Construction throws NumericError when `a` is not symmetric positive
/// definite (to tolerance); use Cholesky::is_positive_definite to probe
/// without exceptions, or Cholesky::factor_with_jitter for the documented
/// graceful-degradation path on near-singular input.
class Cholesky {
 public:
  /// Unfactored workspace; call factor(a) before any query. Supports the
  /// same storage-reuse pattern as Lu/ComplexLu for allocation-free loops.
  Cholesky() = default;

  /// Factors the SPD matrix `a`. Throws ContractError when `a` is not square
  /// or not symmetric; NumericError (with the failing pivot in its context)
  /// when a pivot is non-positive.
  explicit Cholesky(const Matrix& a) { factor(a); }

  /// Re-factors `a` into this object's existing storage (same contract as
  /// the constructor); clears any previously recorded jitter.
  void factor(const Matrix& a);

  /// factor(a) that reports a non-positive pivot by returning false (and,
  /// when given, its index and value) instead of throwing; shape and
  /// symmetry violations still throw ContractError. The attempt is
  /// bit-identical to the clean attempt of factor_with_jitter and
  /// allocates nothing once the storage has grown to a's size. After false
  /// the object is unusable until the next successful factor.
  [[nodiscard]] bool try_factor(const Matrix& a,
                                std::size_t* bad_index = nullptr,
                                double* bad_value = nullptr);

  /// Factors `a`, retrying with an escalating diagonal ridge per `policy`
  /// when the clean attempt fails. The clean attempt is bit-identical to
  /// Cholesky(a), so well-conditioned matrices pay nothing and lose no
  /// precision. jitter_applied() reports the absolute ridge that succeeded
  /// (0.0 for a clean factorization). Throws NumericError with context after
  /// all attempts are exhausted.
  [[nodiscard]] static Cholesky factor_with_jitter(
      const Matrix& a, const CholeskyJitter& policy = {});

  /// Absolute ridge added to the diagonal before the successful
  /// factorization; 0.0 when the clean attempt succeeded.
  [[nodiscard]] double jitter_applied() const { return jitter_; }

  /// Factors without throwing on numeric failure; returns false and leaves
  /// the object unusable when `a` is not positive definite.
  [[nodiscard]] static bool is_positive_definite(const Matrix& a);

  [[nodiscard]] std::size_t dimension() const { return l_.rows(); }

  /// The lower-triangular factor L.
  [[nodiscard]] const Matrix& factor() const { return l_; }

  /// Solves A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves A x = b into `x` (resized, capacity reused) with no heap
  /// allocation in steady state. `b` and `x` may alias element storage but
  /// must be distinct objects.
  void solve_into(const Vector& b, Vector& x) const;

  /// Solves A X = B column-by-column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Solves L y = b (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  /// Solves L^T x = b (backward substitution).
  [[nodiscard]] Vector solve_upper(const Vector& b) const;

  /// A^{-1}, symmetric by construction.
  [[nodiscard]] Matrix inverse() const;

  /// log(det A) = 2 * sum_i log L_ii. Never overflows for representable A.
  [[nodiscard]] double log_determinant() const;

  /// det A; may overflow for large well-scaled matrices — prefer
  /// log_determinant.
  [[nodiscard]] double determinant() const;

  /// Squared Mahalanobis distance x^T A^{-1} x via one triangular solve.
  [[nodiscard]] double mahalanobis_squared(const Vector& x) const;

  /// Same value with the triangular solve written into `work` (resized,
  /// capacity reused), so steady-state calls allocate nothing. `work` may
  /// be `x` itself.
  [[nodiscard]] double mahalanobis_squared(const Vector& x,
                                           Vector& work) const;

  /// trace(A^{-1} B) for a square B, without forming A^{-1} or A^{-1} B.
  /// This is the workhorse of the sufficient-statistic likelihood score:
  /// the Gaussian log-likelihood of a sample set enters only through
  /// trace(Sigma^{-1} S) and a Mahalanobis term. The column solves are
  /// written into `work` (resized, capacity reused), so steady-state calls
  /// allocate nothing.
  [[nodiscard]] double trace_of_solve(const Matrix& b, Vector& work) const;

 private:
  /// Forward substitution L y = b for the right-hand side
  /// b_i = rhs[i * stride], written to out[0..n). `out` may alias `rhs`
  /// when stride is 1.
  void forward_substitute(const double* rhs, std::size_t stride,
                          double* out) const;

  /// Backward substitution L^T x = y in place on x[0..n), computing entries
  /// n-1 down to `stop` (0 for the full solve).
  void backward_substitute(double* x, std::size_t stop) const;

  /// Returns true on success; on failure reports the offending pivot.
  [[nodiscard]] static bool factor_into(const Matrix& a, Matrix& l,
                                        std::size_t* bad_index = nullptr,
                                        double* bad_value = nullptr);

  Matrix l_;
  double jitter_ = 0.0;
};

}  // namespace bmfusion::linalg
