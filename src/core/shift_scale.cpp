#include "core/shift_scale.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/contracts.hpp"

namespace bmfusion::core {

using linalg::Matrix;
using linalg::Vector;

ShiftScale::ShiftScale(Vector shift, Vector scale)
    : shift_(std::move(shift)), scale_(std::move(scale)) {
  BMFUSION_REQUIRE(shift_.size() == scale_.size(),
                   "shift/scale size mismatch");
  BMFUSION_REQUIRE(shift_.size() >= 1, "transform needs dimension >= 1");
  for (std::size_t i = 0; i < scale_.size(); ++i) {
    if (!(scale_[i] > 0.0) || !std::isfinite(scale_[i])) {
      std::ostringstream os;
      os << "shift/scale: scale entry for dimension " << i
         << " must be positive and finite (got " << scale_[i] << ")";
      throw ConfigError(os.str());
    }
  }
}

Vector ShiftScale::apply(const Vector& x) const {
  Vector y;
  apply_into(x, y);
  return y;
}

void ShiftScale::apply_into(const Vector& x, Vector& y) const {
  BMFUSION_REQUIRE(x.size() == dimension(), "transform dimension mismatch");
  y.resize(dimension());
  for (std::size_t i = 0; i < dimension(); ++i) {
    y[i] = (x[i] - shift_[i]) / scale_[i];
  }
}

Matrix ShiftScale::apply(const Matrix& samples) const {
  BMFUSION_REQUIRE(samples.cols() == dimension(),
                   "transform dimension mismatch");
  Matrix out(samples.rows(), samples.cols());
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    for (std::size_t c = 0; c < dimension(); ++c) {
      out(r, c) = (samples(r, c) - shift_[c]) / scale_[c];
    }
  }
  return out;
}

GaussianMoments ShiftScale::apply(const GaussianMoments& moments) const {
  BMFUSION_REQUIRE(moments.dimension() == dimension(),
                   "transform dimension mismatch");
  GaussianMoments out;
  out.mean = apply(moments.mean);
  out.covariance = Matrix(dimension(), dimension());
  for (std::size_t i = 0; i < dimension(); ++i) {
    for (std::size_t j = 0; j < dimension(); ++j) {
      out.covariance(i, j) =
          moments.covariance(i, j) / (scale_[i] * scale_[j]);
    }
  }
  return out;
}

SufficientStats ShiftScale::apply(const SufficientStats& stats) const {
  BMFUSION_REQUIRE(stats.dimension() == dimension(),
                   "transform dimension mismatch");
  BMFUSION_REQUIRE(stats.count() >= 1,
                   "transforming sufficient stats needs >= 1 sample");
  const std::size_t d = dimension();
  const double n = static_cast<double>(stats.count());
  Vector sum(d);
  for (std::size_t r = 0; r < d; ++r) {
    sum[r] = (stats.sum()[r] - n * shift_[r]) / scale_[r];
  }
  linalg::Matrix outer(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      outer(r, c) = (stats.sum_outer()(r, c) - shift_[c] * stats.sum()[r] -
                     shift_[r] * stats.sum()[c] + n * shift_[r] * shift_[c]) /
                    (scale_[r] * scale_[c]);
    }
  }
  return SufficientStats::from_raw(stats.count(), std::move(sum),
                                   std::move(outer));
}

Vector ShiftScale::invert(const Vector& y) const {
  BMFUSION_REQUIRE(y.size() == dimension(), "transform dimension mismatch");
  Vector x(dimension());
  for (std::size_t i = 0; i < dimension(); ++i) {
    x[i] = y[i] * scale_[i] + shift_[i];
  }
  return x;
}

GaussianMoments ShiftScale::invert(const GaussianMoments& moments) const {
  BMFUSION_REQUIRE(moments.dimension() == dimension(),
                   "transform dimension mismatch");
  GaussianMoments out;
  out.mean = invert(moments.mean);
  out.covariance = Matrix(dimension(), dimension());
  for (std::size_t i = 0; i < dimension(); ++i) {
    for (std::size_t j = 0; j < dimension(); ++j) {
      out.covariance(i, j) =
          moments.covariance(i, j) * (scale_[i] * scale_[j]);
    }
  }
  return out;
}

StageTransforms make_stage_transforms(const Vector& early_nominal,
                                      const Vector& late_nominal,
                                      const GaussianMoments& early_moments) {
  early_moments.validate();
  const std::size_t d = early_moments.dimension();
  BMFUSION_REQUIRE(early_nominal.size() == d && late_nominal.size() == d,
                   "nominal vectors must match the moment dimension");
  Vector sigma(d);
  for (std::size_t i = 0; i < d; ++i) {
    const double variance = early_moments.covariance(i, i);
    // A (near-)zero early-stage variance would make this dimension's scale
    // collapse and every scaled sample blow up; name the dimension instead
    // of failing later with a generic scale complaint. The 1e-280 floor only
    // rejects exact zeros and denormal-level degeneracy, not legitimately
    // small physical units.
    if (!(variance > 0.0) || !std::isfinite(variance) || variance < 1e-280) {
      std::ostringstream os;
      os << "shift/scale: early-stage variance for dimension " << i
         << " is degenerate (" << variance
         << "); cannot normalize by its standard deviation";
      throw NumericError(os.str(), ErrorContext{}
                                       .with_operation("make_stage_transforms")
                                       .with_dimension(d)
                                       .with_index(i)
                                       .with_value(variance));
    }
    sigma[i] = std::sqrt(variance);
  }
  return StageTransforms{ShiftScale(early_nominal, sigma),
                         ShiftScale(late_nominal, sigma)};
}

}  // namespace bmfusion::core
