#include "numerics/optimize2d.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace gridsub::numerics {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NelderMead, QuadraticBowl) {
  const auto f = [](double x, double y) {
    return (x - 1.0) * (x - 1.0) + 2.0 * (y + 2.0) * (y + 2.0);
  };
  const auto res = nelder_mead(f, {0.0, 0.0}, {0.5, 0.5}, 1e-12, 4000);
  EXPECT_NEAR(res.x, 1.0, 1e-4);
  EXPECT_NEAR(res.y, -2.0, 1e-4);
}

TEST(NelderMead, RosenbrockValley) {
  const auto f = [](double x, double y) {
    const double a = 1.0 - x;
    const double b = y - x * x;
    return a * a + 100.0 * b * b;
  };
  const auto res = nelder_mead(f, {-1.2, 1.0}, {0.5, 0.5}, 1e-14, 8000);
  EXPECT_NEAR(res.x, 1.0, 2e-2);
  EXPECT_NEAR(res.y, 1.0, 4e-2);
}

TEST(NelderMead, ContractsAwayFromInfeasibleRegion) {
  // Objective is +inf for x < 0; minimum sits at the boundary-adjacent
  // feasible point (0.5, 0).
  const auto f = [](double x, double y) {
    if (x < 0.0) return kInf;
    return (x - 0.5) * (x - 0.5) + y * y;
  };
  const auto res = nelder_mead(f, {2.0, 1.0}, {0.5, 0.5}, 1e-12, 4000);
  EXPECT_NEAR(res.x, 0.5, 1e-3);
  EXPECT_NEAR(res.y, 0.0, 1e-3);
}

}  // namespace
}  // namespace gridsub::numerics
