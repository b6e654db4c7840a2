#include "numerics/integration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gridsub::numerics {
namespace {

TEST(AdaptiveSimpson, HandlesPeakedIntegrand) {
  // N(0, 0.01) density integrates to ~1 over [-1, 1].
  const auto f = [](double x) {
    return std::exp(-0.5 * x * x / 1e-4) / std::sqrt(2.0 * M_PI * 1e-4);
  };
  EXPECT_NEAR(adaptive_simpson(f, -1.0, 1.0, 1e-10), 1.0, 1e-7);
}

TEST(AdaptiveSimpson, MatchesClosedFormExponential) {
  const auto f = [](double x) { return std::exp(-x); };
  EXPECT_NEAR(adaptive_simpson(f, 0.0, 10.0, 1e-12),
              1.0 - std::exp(-10.0), 1e-10);
}

TEST(CumulativeTrapezoid, PrefixValuesMatchDirectIntegrals) {
  std::vector<double> y;
  const double dx = 0.5;
  for (int i = 0; i <= 20; ++i) y.push_back(static_cast<double>(i) * dx);
  std::vector<double> c;
  cumulative_trapezoid(y, dx, c);
  ASSERT_EQ(c.size(), y.size());
  EXPECT_EQ(c[0], 0.0);
  // Integral of identity up to x is x^2/2 (trapezoid is exact on linears).
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double x = static_cast<double>(i) * dx;
    EXPECT_NEAR(c[i], 0.5 * x * x, 1e-12) << "i=" << i;
  }
}

TEST(CumulativeTrapezoid, IsMonotoneForNonNegativeIntegrand) {
  std::vector<double> y(101, 0.25);
  std::vector<double> c;
  cumulative_trapezoid(y, 1.0, c);
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_GE(c[i], c[i - 1]);
  EXPECT_NEAR(c.back(), 25.0, 1e-12);
}

TEST(CumulativeTrapezoid, RejectsEmptyAndBadStep) {
  std::vector<double> empty;
  std::vector<double> ok{1.0, 2.0};
  std::vector<double> out;
  EXPECT_THROW(cumulative_trapezoid(empty, 1.0, out),
               std::invalid_argument);
  EXPECT_THROW(cumulative_trapezoid(ok, 0.0, out), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::numerics
