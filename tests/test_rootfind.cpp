#include "numerics/rootfind.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gridsub::numerics {
namespace {

TEST(BrentRoot, ConvergesFasterThanBisection) {
  const auto f = [](double x) { return std::cos(x) - x; };
  const auto brent = brent_root(f, 0.0, 1.0, 1e-14);
  EXPECT_NEAR(brent.x, 0.7390851332151607, 1e-10);
  // Fewer evaluations than bisection needs on this bracket and tolerance
  // (50).
  EXPECT_LT(brent.evaluations, 50);
}

TEST(BrentRoot, HandlesSteepFunctions) {
  const auto f = [](double x) { return std::expm1(50.0 * (x - 0.2)); };
  const auto res = brent_root(f, -1.0, 1.0, 1e-14);
  EXPECT_NEAR(res.x, 0.2, 1e-8);
}

TEST(BracketAndSolve, ExpandsToFindTheRoot) {
  const auto f = [](double x) { return x - 1000.0; };
  const auto res = bracket_and_solve(f, 0.0, 1.0, 60, 1e-10);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x, 1000.0, 1e-6);
}

TEST(BracketAndSolve, ReportsFailureWhenNoRootExists) {
  const auto f = [](double x) { return x * x + 1.0; };
  const auto res = bracket_and_solve(f, -1.0, 1.0, 8, 1e-10);
  EXPECT_FALSE(res.converged);
}

class RootSweep : public ::testing::TestWithParam<double> {};

TEST_P(RootSweep, PowerFunctions) {
  const double target = GetParam();
  // Solve x^3 = target.
  const auto f = [target](double x) { return x * x * x - target; };
  const auto res = bracket_and_solve(f, -2.0, 2.0, 60, 1e-13);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.x, std::cbrt(target), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Targets, RootSweep,
                         ::testing::Values(-512.0, -1.0, 0.001, 1.0, 27.0,
                                           1e6));

}  // namespace
}  // namespace gridsub::numerics
