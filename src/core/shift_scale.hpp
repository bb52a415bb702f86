// Performance shift and scaling (paper Section 4.1).
//
// Early- and late-stage distributions share a shape but not nominal values,
// and raw metrics span many orders of magnitude (gain in dB vs. power in
// watts). Each stage's samples are therefore shifted by that stage's
// *nominal* simulation result and scaled by the *early-stage* per-dimension
// standard deviation, making both distributions origin-centered and
// "isotropic" before fusion.
#pragma once

#include "core/moments.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace bmfusion::core {

/// Per-dimension affine map y = (x - shift) / scale.
class ShiftScale {
 public:
  /// `scale` entries must be strictly positive.
  ShiftScale(linalg::Vector shift, linalg::Vector scale);

  [[nodiscard]] std::size_t dimension() const { return shift_.size(); }
  [[nodiscard]] const linalg::Vector& shift() const { return shift_; }
  [[nodiscard]] const linalg::Vector& scale() const { return scale_; }

  /// Forward transform of one point.
  [[nodiscard]] linalg::Vector apply(const linalg::Vector& x) const;

  /// Same transform written into `y` (resized, capacity reused), so a
  /// caller that keeps `y` across points allocates nothing. `y` may be
  /// `x`.
  void apply_into(const linalg::Vector& x, linalg::Vector& y) const;

  /// Forward transform of a sample matrix (row-wise).
  [[nodiscard]] linalg::Matrix apply(const linalg::Matrix& samples) const;

  /// Exact push-forward of Gaussian moments:
  /// mean' = (mean - shift)/scale, cov'_ij = cov_ij/(scale_i scale_j).
  [[nodiscard]] GaussianMoments apply(const GaussianMoments& moments) const;

  /// Algebraic push-forward of sufficient statistics: the stats of the
  /// transformed samples computed from the stats of the raw samples,
  ///   sum'_r   = (sum_r - n s_r) / c_r
  ///   outer'_rc = (outer_rc - s_c sum_r - s_r sum_c + n s_r s_c)/(c_r c_c).
  /// Exact in real arithmetic; in floating point the subtractions can
  /// cancel when |shift| dwarfs the sample spread, so prefer transforming
  /// samples before accumulation when raw rows are available (the streaming
  /// observe path does exactly that).
  [[nodiscard]] SufficientStats apply(const SufficientStats& stats) const;

  /// Inverse transform of one point.
  [[nodiscard]] linalg::Vector invert(const linalg::Vector& y) const;

  /// Exact pull-back of Gaussian moments into original units.
  [[nodiscard]] GaussianMoments invert(const GaussianMoments& moments) const;

 private:
  linalg::Vector shift_;
  linalg::Vector scale_;
};

/// Builds the two stage transforms of Section 4.1: both use the early
/// stage's standard deviations (square roots of the early covariance
/// diagonal), shifted by the respective stage's nominal metrics.
struct StageTransforms {
  ShiftScale early;
  ShiftScale late;
};
[[nodiscard]] StageTransforms make_stage_transforms(
    const linalg::Vector& early_nominal, const linalg::Vector& late_nominal,
    const GaussianMoments& early_moments);

}  // namespace bmfusion::core
