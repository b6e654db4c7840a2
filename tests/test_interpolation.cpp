#include "numerics/interpolation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gridsub::numerics {
namespace {

TEST(InverseMonotone, InvertsLinearTabulation) {
  // y(x) = x/10 on x in [0, 10].
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) y.push_back(static_cast<double>(i) / 10.0);
  EXPECT_NEAR(inverse_monotone(0.0, 1.0, y, 0.35), 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(inverse_monotone(0.0, 1.0, y, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(inverse_monotone(0.0, 1.0, y, 2.0), 10.0);
}

TEST(InverseMonotone, HandlesFlatSegments) {
  // Plateau between nodes 1 and 3: inversion lands at the left edge.
  const std::vector<double> y{0.0, 0.5, 0.5, 0.5, 1.0};
  const double x = inverse_monotone(0.0, 1.0, y, 0.5);
  EXPECT_GE(x, 0.9);
  EXPECT_LE(x, 1.1);
}

TEST(InverseMonotone, RoundTripsWithInterpolant) {
  const std::vector<double> y{0.0, 0.1, 0.3, 0.7, 1.0};
  // The forward map: linear interpolation of y on the unit grid.
  const auto interp = [&y](double x) {
    const auto i = static_cast<std::size_t>(x);
    const double frac = x - static_cast<double>(i);
    return i + 1 < y.size() ? y[i] + frac * (y[i + 1] - y[i]) : y.back();
  };
  for (double target : {0.05, 0.2, 0.5, 0.9}) {
    const double x = inverse_monotone(0.0, 1.0, y, target);
    EXPECT_NEAR(interp(x), target, 1e-10);
  }
}

}  // namespace
}  // namespace gridsub::numerics
