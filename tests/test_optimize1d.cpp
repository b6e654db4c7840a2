#include "numerics/optimize1d.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gridsub::numerics {
namespace {

TEST(BrentMinimize, FindsSmoothMinimumFast) {
  const auto f = [](double x) { return std::cos(x); };  // min at pi
  const auto res = brent_minimize(f, 2.0, 4.0, 1e-10);
  EXPECT_NEAR(res.x, M_PI, 1e-6);
  // Fewer evaluations than golden-section search needs on this bracket
  // and tolerance (52).
  EXPECT_LT(res.evaluations, 52);
}

TEST(BrentMinimize, QuarticWithFlatBottom) {
  const auto f = [](double x) { return std::pow(x - 1.5, 4.0); };
  const auto res = brent_minimize(f, -10.0, 10.0, 1e-10);
  EXPECT_NEAR(res.x, 1.5, 1e-2);  // quartic flatness limits x accuracy
  EXPECT_NEAR(res.value, 0.0, 1e-9);
}

TEST(ScanThenRefine, EscapesLocalMinima) {
  // Two wells: local at x=-1 (depth 1), global at x=2 (depth 2). A pure
  // descent from the wrong bracket would find the local one.
  const auto f = [](double x) {
    return -1.0 / (1.0 + (x + 1.0) * (x + 1.0)) -
           2.0 / (1.0 + 4.0 * (x - 2.0) * (x - 2.0));
  };
  const auto res = scan_then_refine(f, -6.0, 6.0, 256, 1e-8);
  EXPECT_NEAR(res.x, 2.0, 0.05);
}

TEST(ScanThenRefine, WorksOnPiecewiseConstantPlateaus) {
  const auto f = [](double x) { return std::floor(std::abs(x - 4.0)); };
  const auto res = scan_then_refine(f, 0.0, 10.0, 128, 1e-6);
  EXPECT_NEAR(res.value, 0.0, 1e-12);
  EXPECT_NEAR(res.x, 4.0, 1.0);
}

TEST(Optimize1D, RejectsInvertedBounds) {
  const auto f = [](double x) { return x * x; };
  EXPECT_THROW(brent_minimize(f, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(scan_then_refine(f, 1.0, 0.0), std::invalid_argument);
}

class KnownMinimaSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(KnownMinimaSweep, ShiftedParabolas) {
  const auto [center, scale] = GetParam();
  const auto f = [center, scale](double x) {
    return scale * (x - center) * (x - center);
  };
  const auto res = scan_then_refine(f, center - 50.0, center + 75.0, 64,
                                    1e-9);
  EXPECT_NEAR(res.x, center, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KnownMinimaSweep,
    ::testing::Combine(::testing::Values(-20.0, 0.0, 3.7, 150.0),
                       ::testing::Values(0.01, 1.0, 250.0)));

}  // namespace
}  // namespace gridsub::numerics
