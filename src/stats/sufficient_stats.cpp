#include "stats/sufficient_stats.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace bmfusion::stats {

SufficientStats::SufficientStats(std::size_t dimension)
    : sum_(dimension), sum_outer_(dimension, dimension) {
  BMFUSION_REQUIRE(dimension >= 1,
                   "sufficient stats need dimension >= 1");
}

SufficientStats SufficientStats::from_samples(const linalg::Matrix& samples) {
  BMFUSION_REQUIRE(samples.rows() >= 1 && samples.cols() >= 1,
                   "sufficient stats need a non-empty sample matrix");
  SufficientStats stats(samples.cols());
  const std::size_t d = samples.cols();
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      const double xr = samples(i, r);
      stats.sum_[r] += xr;
      for (std::size_t c = r; c < d; ++c) {
        stats.sum_outer_(r, c) += xr * samples(i, c);
      }
    }
  }
  stats.count_ = samples.rows();
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      stats.sum_outer_(r, c) = stats.sum_outer_(c, r);
    }
  }
  return stats;
}

SufficientStats SufficientStats::from_raw(std::size_t count,
                                          linalg::Vector sum,
                                          linalg::Matrix sum_outer) {
  BMFUSION_REQUIRE(count >= 1, "sufficient stats need count >= 1");
  BMFUSION_REQUIRE(sum.size() >= 1, "sufficient stats need dimension >= 1");
  BMFUSION_REQUIRE(
      sum_outer.rows() == sum.size() && sum_outer.cols() == sum.size(),
      "sufficient stats outer-sum shape must match the sum vector");
  SufficientStats stats;
  stats.count_ = count;
  stats.sum_ = std::move(sum);
  stats.sum_outer_ = std::move(sum_outer);
  return stats;
}

void SufficientStats::add(const linalg::Vector& sample) {
  BMFUSION_REQUIRE(sample.size() == dimension(),
                   "sample dimension mismatch in sufficient stats");
  ++count_;
  for (std::size_t r = 0; r < dimension(); ++r) {
    sum_[r] += sample[r];
    for (std::size_t c = 0; c < dimension(); ++c) {
      sum_outer_(r, c) += sample[r] * sample[c];
    }
  }
}

void SufficientStats::clear() {
  count_ = 0;
  sum_.assign_zero(sum_.size());
  sum_outer_.assign_zero(sum_outer_.rows(), sum_outer_.cols());
}

SufficientStats& SufficientStats::operator+=(const SufficientStats& other) {
  BMFUSION_REQUIRE(other.dimension() == dimension(),
                   "sufficient stats dimension mismatch");
  count_ += other.count_;
  sum_ += other.sum_;
  sum_outer_ += other.sum_outer_;
  return *this;
}

SufficientStats& SufficientStats::operator-=(const SufficientStats& other) {
  BMFUSION_REQUIRE(other.dimension() == dimension(),
                   "sufficient stats dimension mismatch");
  BMFUSION_REQUIRE(count_ >= other.count_,
                   "sufficient stats subtraction needs a subset");
  count_ -= other.count_;
  sum_ -= other.sum_;
  sum_outer_ -= other.sum_outer_;
  return *this;
}

linalg::Vector SufficientStats::mean() const {
  BMFUSION_REQUIRE(count_ >= 1, "sufficient stats mean needs >= 1 sample");
  return sum_ / static_cast<double>(count_);
}

linalg::Matrix SufficientStats::scatter() const {
  BMFUSION_REQUIRE(count_ >= 1,
                   "sufficient stats scatter needs >= 1 sample");
  // S = sum x x^T - n xbar xbar^T.
  const linalg::Vector xbar = mean();
  linalg::Matrix s = sum_outer_;
  const double n = static_cast<double>(count_);
  for (std::size_t r = 0; r < dimension(); ++r) {
    for (std::size_t c = 0; c < dimension(); ++c) {
      s(r, c) -= n * xbar[r] * xbar[c];
    }
  }
  s.symmetrize();
  // A true scatter diagonal is non-negative; catastrophic cancellation on
  // the subtraction path (totals - fold with near-duplicate samples) can
  // leave entries like -1e-18 that spuriously fail SPD checks downstream.
  for (std::size_t r = 0; r < dimension(); ++r) {
    s(r, r) = std::max(s(r, r), 0.0);
  }
  return s;
}

}  // namespace bmfusion::stats
