// Single-resubmission strategy (paper §4, eqs. 1-2): multiple submission
// (§5) at b = 1, MultipleSubmission(m, 1).

#include "core/multiple_submission.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "numerics/integration.hpp"
#include "test_util.hpp"

namespace gridsub::core {
namespace {

TEST(SingleResubmission, MatchesEquation1ByDirectQuadrature) {
  const auto src = testutil::make_heavy_model(0.05, 4000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  for (double t_inf : {200.0, 500.0, 1000.0, 3000.0}) {
    const double direct =
        numerics::adaptive_simpson(
            [&](double u) { return 1.0 - m.ftilde(u); }, 0.0, t_inf, 1e-9) /
        m.ftilde(t_inf);
    EXPECT_NEAR(s.expectation(t_inf), direct, 0.5) << "t_inf=" << t_inf;
  }
}

TEST(SingleResubmission, ExponentialLatencyIsTimeoutIndifferent) {
  // Memorylessness: E_J(t∞) == mean for every t∞ when rho == 0. This is
  // the sharp analytic sanity check — resubmission can't help (or hurt).
  const auto src = testutil::make_exponential_model(300.0, 0.0, 20000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  for (double t_inf : {50.0, 300.0, 1000.0, 5000.0}) {
    EXPECT_NEAR(s.expectation(t_inf), 300.0, 2.0) << "t_inf=" << t_inf;
  }
}

TEST(SingleResubmission, FaultsMakeLargeTimeoutsExpensive) {
  // With outliers, E_J explodes as t∞ grows (each fault costs t∞), so the
  // optimum is interior.
  const auto src = testutil::make_exponential_model(300.0, 0.2, 20000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  const auto opt = s.optimize();
  EXPECT_LT(opt.t_inf, 19000.0);
  EXPECT_LT(opt.metrics.expectation, s.expectation(19000.0));
  EXPECT_LT(opt.metrics.expectation, s.expectation(60.0));
}

TEST(SingleResubmission, ExpectationInfiniteWhenNoMassBeforeTimeout) {
  const auto src = testutil::make_heavy_model(0.05, 4000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  // The latency floor is 60 s; F̃(10) == 0.
  EXPECT_TRUE(std::isinf(s.expectation(10.0)));
  EXPECT_TRUE(std::isinf(s.expectation(-5.0)));
}

TEST(SingleResubmission, OptimumBeatsArbitraryTimeouts) {
  const auto src = testutil::make_heavy_model(0.05, 4000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  const auto opt = s.optimize();
  for (double t : {150.0, 400.0, 900.0, 2500.0, 3900.0}) {
    EXPECT_LE(opt.metrics.expectation, s.expectation(t) + 1e-6);
  }
}

TEST(SingleResubmission, ExpectedSubmissionsIsInverseSuccessProbability) {
  const auto src = testutil::make_heavy_model(0.05, 4000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  const double t_inf = 800.0;
  EXPECT_NEAR(s.expected_submissions(t_inf), 1.0 / m.ftilde(t_inf), 1e-9);
  EXPECT_GT(s.expected_submissions(200.0), s.expected_submissions(2000.0));
}

TEST(SingleResubmission, StdDeviationMatchesEquation2) {
  // Eq. 2 transcribed directly, compared against the moment-form
  // implementation.
  const auto src = testutil::make_heavy_model(0.05, 4000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  const double t_inf = 700.0;
  const double p = m.ftilde(t_inf);
  const auto surv = [&](double u) { return 1.0 - m.ftilde(u); };
  const double i0 =
      numerics::adaptive_simpson(surv, 0.0, t_inf, 1e-10);
  const double i1 = numerics::adaptive_simpson(
      [&](double u) { return u * surv(u); }, 0.0, t_inf, 1e-10);
  const double var_eq2 = -i0 * i0 / (p * p) + 2.0 * i1 / p +
                         2.0 * t_inf * (1.0 - p) * i0 / (p * p);
  EXPECT_NEAR(s.std_deviation(t_inf), std::sqrt(var_eq2), 1.0);
}

TEST(SingleResubmission, Table1PatternSigmaJBelowSigmaR) {
  // The paper's Table 1 observation: sigma_J at the optimum is smaller
  // than the raw latency sigma (outlier impact suppressed).
  const auto src = testutil::make_heavy_model(0.05, 4000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  const auto opt = s.optimize();
  // sigma of the conditioned latency: estimate from the model by sampling.
  stats::Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  int n = 0;
  for (int i = 0; i < 200000; ++i) {
    const double x = src.sample(rng);
    if (!model::is_outlier_sample(x)) {
      sum += x;
      sum2 += x * x;
      ++n;
    }
  }
  const double mean = sum / n;
  const double sigma_r = std::sqrt(sum2 / n - mean * mean);
  EXPECT_LT(opt.metrics.std_deviation, sigma_r);
}

class SingleTimeoutSweep : public ::testing::TestWithParam<double> {};

TEST_P(SingleTimeoutSweep, EvaluateIsConsistentWithComponents) {
  const auto src = testutil::make_heavy_model(0.05, 4000.0);
  const auto m = testutil::discretize(src, 1.0);
  const MultipleSubmission s(m, 1);
  const double t_inf = GetParam();
  const auto metrics = s.evaluate(t_inf);
  EXPECT_DOUBLE_EQ(metrics.expectation, s.expectation(t_inf));
  EXPECT_DOUBLE_EQ(metrics.std_deviation, s.std_deviation(t_inf));
  if (std::isfinite(metrics.expectation)) {
    EXPECT_GT(metrics.expectation, 0.0);
    EXPECT_GE(metrics.std_deviation, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Timeouts, SingleTimeoutSweep,
                         ::testing::Values(100.0, 250.0, 500.0, 1000.0,
                                           2000.0, 3999.0));

}  // namespace
}  // namespace gridsub::core
