// Bit-level comparison of estimator results plus a process-wide counter
// read, shared by the streaming and fusion suites: "bitwise equal" here is
// memcmp of every moment cell, kappa0/nu0/score and the cv_grid, so NaN
// fields (MLE's hyper-parameters) and signed zeros compare exactly.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "core/estimator.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::core {

/// memcmp of `bytes` bytes; empty ranges compare equal without touching
/// their (possibly null) pointers.
inline bool same_bits(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

/// Bitwise equality of every field of two estimates, cv_grid included.
inline void expect_bitwise_equal(const EstimateResult& a,
                                 const EstimateResult& b) {
  for (const auto& [x, y] :
       {std::pair{&a.moments, &b.moments},
        std::pair{&a.scaled_moments, &b.scaled_moments}}) {
    ASSERT_EQ(x->mean.size(), y->mean.size());
    EXPECT_TRUE(same_bits(x->mean.data(), y->mean.data(),
                          x->mean.size() * sizeof(double)));
    ASSERT_EQ(x->covariance.rows(), y->covariance.rows());
    ASSERT_EQ(x->covariance.cols(), y->covariance.cols());
    EXPECT_TRUE(same_bits(
        x->covariance.data(), y->covariance.data(),
        x->covariance.rows() * x->covariance.cols() * sizeof(double)));
  }
  const double scalars_a[] = {a.kappa0, a.nu0, a.score};
  const double scalars_b[] = {b.kappa0, b.nu0, b.score};
  EXPECT_TRUE(same_bits(scalars_a, scalars_b, sizeof scalars_a));
  ASSERT_EQ(a.cv_grid.size(), b.cv_grid.size());
  EXPECT_TRUE(same_bits(a.cv_grid.data(), b.cv_grid.data(),
                        a.cv_grid.size() * sizeof(GridScore)));
}

/// Merged value of a process-wide counter (always 0 with telemetry OFF).
inline std::uint64_t counter_total(const char* name) {
  return telemetry::Registry::instance().counter(name).total();
}

}  // namespace bmfusion::core
