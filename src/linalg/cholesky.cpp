#include "linalg/cholesky.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "log/log.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::linalg {

double CholeskyJitter::scale_at(std::size_t k) const {
  double scale = first_scale;
  for (std::size_t i = 0; i < k; ++i) scale *= growth;
  return scale;
}

bool Cholesky::factor_into(const Matrix& a, Matrix& l, std::size_t* bad_index,
                           double* bad_value) {
  const std::size_t n = a.rows();
  l.assign_zero(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) {
      if (bad_index != nullptr) *bad_index = j;
      if (bad_value != nullptr) *bad_value = diag;
      return false;
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  return true;
}

void Cholesky::factor(const Matrix& a) {
  std::size_t bad_index = 0;
  double bad_value = 0.0;
  if (!try_factor(a, &bad_index, &bad_value)) {
    throw NumericError(
        "cholesky: matrix is not positive definite (non-positive pivot)",
        ErrorContext{}
            .with_operation("cholesky")
            .with_dimension(a.rows())
            .with_index(bad_index)
            .with_value(bad_value));
  }
}

bool Cholesky::try_factor(const Matrix& a, std::size_t* bad_index,
                          double* bad_value) {
  BMFUSION_REQUIRE(a.is_square(), "cholesky requires a square matrix");
  BMFUSION_REQUIRE(a.is_symmetric(1e-9),
                   "cholesky requires a symmetric matrix");
  jitter_ = 0.0;
  return factor_into(a, l_, bad_index, bad_value);
}

void Cholesky::solve_into(const Vector& b, Vector& x) const {
  BMFUSION_REQUIRE(b.size() == dimension(), "rhs size mismatch");
  x.resize(dimension());
  // Forward substitution (L y = b) directly into the solution buffer, then
  // backward substitution (L^T x = y) in place.
  forward_substitute(b.data(), 1, x.data());
  backward_substitute(x.data(), 0);
}

void Cholesky::forward_substitute(const double* rhs, std::size_t stride,
                                  double* out) const {
  // Each step reads only entries it has already finalized plus its own
  // right-hand side before overwriting it, so `out` may alias `rhs`.
  const std::size_t n = dimension();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = rhs[i * stride];
    const double* const row_i = l_.row_data(i);
    for (std::size_t k = 0; k < i; ++k) acc -= row_i[k] * out[k];
    out[i] = acc / row_i[i];
  }
}

void Cholesky::backward_substitute(double* x, std::size_t stop) const {
  const std::size_t n = dimension();
  for (std::size_t ii = n; ii-- > stop;) {
    double acc = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * x[k];
    x[ii] = acc / l_(ii, ii);
  }
}

Cholesky Cholesky::factor_with_jitter(const Matrix& a,
                                      const CholeskyJitter& policy) {
  BMFUSION_REQUIRE(a.is_square(), "cholesky requires a square matrix");
  BMFUSION_REQUIRE(a.is_symmetric(1e-9),
                   "cholesky requires a symmetric matrix");
  Cholesky chol;
  std::size_t bad_index = 0;
  double bad_value = 0.0;
  // Clean attempt first: identical to the strict constructor, so
  // well-conditioned inputs produce bit-identical factors.
  if (factor_into(a, chol.l_, &bad_index, &bad_value)) return chol;

  BMF_COUNTER_ADD("linalg.cholesky.jitter_activations", 1);
  const double base = a.norm_max() > 0.0 ? a.norm_max() : 1.0;
  BMF_LOG_DEBUG("cholesky clean attempt failed, entering jitter escalation",
                log::f("dim", a.rows()), log::f("norm_max", base),
                log::f("pivot", bad_index), log::f("pivot_value", bad_value));
  for (std::size_t k = 0; k < policy.attempts; ++k) {
    const double ridge = policy.scale_at(k) * base;
    if (!std::isfinite(ridge) || ridge <= 0.0) break;
    BMF_COUNTER_ADD("linalg.cholesky.jitter_retries", 1);
    BMF_LOG_DEBUG("cholesky ridge retry", log::f("attempt", k),
                  log::f("ridge", ridge), log::f("dim", a.rows()));
    Matrix jittered = a;
    for (std::size_t i = 0; i < a.rows(); ++i) jittered(i, i) += ridge;
    if (factor_into(jittered, chol.l_, &bad_index, &bad_value)) {
      chol.jitter_ = ridge;
      BMF_GAUGE_SET("linalg.cholesky.jitter_applied", ridge);
      BMF_LOG_INFO("cholesky succeeded after ridge jitter",
                   log::f("attempt", k), log::f("ridge", ridge),
                   log::f("dim", a.rows()), log::f("norm_max", base));
      return chol;
    }
  }
  BMF_LOG_WARN("cholesky jitter escalation exhausted",
               log::f("attempts", policy.attempts), log::f("dim", a.rows()),
               log::f("norm_max", base), log::f("last_pivot", bad_index),
               log::f("last_pivot_value", bad_value));
  throw NumericError(
      "cholesky: matrix is not positive definite even after ridge-jitter "
      "retries",
      ErrorContext{}
          .with_operation("cholesky-jitter")
          .with_dimension(a.rows())
          .with_index(bad_index)
          .with_value(bad_value)
          .with_detail("attempts=" + std::to_string(policy.attempts)));
}

bool Cholesky::is_positive_definite(const Matrix& a) {
  if (!a.is_square() || !a.is_symmetric(1e-9)) return false;
  Matrix l;
  return factor_into(a, l);
}

Vector Cholesky::solve_lower(const Vector& b) const {
  BMFUSION_REQUIRE(b.size() == dimension(), "rhs size mismatch");
  Vector y(dimension());
  forward_substitute(b.data(), 1, y.data());
  return y;
}

Vector Cholesky::solve_upper(const Vector& b) const {
  BMFUSION_REQUIRE(b.size() == dimension(), "rhs size mismatch");
  Vector x = b;
  backward_substitute(x.data(), 0);
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  return solve_upper(solve_lower(b));
}

Matrix Cholesky::solve(const Matrix& b) const {
  BMFUSION_REQUIRE(b.rows() == dimension(), "rhs row count mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    x.set_col(c, solve(b.col(c)));
  }
  return x;
}

Matrix Cholesky::inverse() const {
  Matrix inv = solve(Matrix::identity(dimension()));
  // The exact inverse is symmetric; remove rounding asymmetry so downstream
  // SPD checks do not trip on it.
  inv.symmetrize();
  return inv;
}

double Cholesky::log_determinant() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dimension(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

double Cholesky::determinant() const { return std::exp(log_determinant()); }

double Cholesky::mahalanobis_squared(const Vector& x) const {
  Vector work;
  return mahalanobis_squared(x, work);
}

double Cholesky::mahalanobis_squared(const Vector& x, Vector& work) const {
  BMFUSION_REQUIRE(x.size() == dimension(), "rhs size mismatch");
  work.resize(dimension());
  forward_substitute(x.data(), 1, work.data());
  return dot(work, work);
}

double Cholesky::trace_of_solve(const Matrix& b, Vector& work) const {
  BMFUSION_REQUIRE(b.is_square() && b.rows() == dimension(),
                   "trace_of_solve needs a matching square matrix");
  // trace(A^{-1} B) = sum_c e_c^T A^{-1} B e_c; one solve per column, read
  // in place from B. Entry c of a backward solve depends only on entries
  // c+1..n-1, so the backward pass stops at c.
  const std::size_t n = dimension();
  work.resize(n);
  double acc = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    forward_substitute(b.data() + c, n, work.data());
    backward_substitute(work.data(), c);
    acc += work[c];
  }
  return acc;
}

}  // namespace bmfusion::linalg
