// Monte Carlo cross-validation of every analytic formula in core/:
// the MC engine executes the client protocol directly; analytic and
// simulated E_J / sigma_J / N∥ / submission counts must agree within MC
// error. This is the repository's ground-truth test.

#include <gtest/gtest.h>

#include <cmath>

#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "mc/mc_engine.hpp"
#include "test_util.hpp"

namespace gridsub::mc {
namespace {

const model::DiscretizedLatencyModel& shared_model() {
  static const auto m =
      testutil::discretize(testutil::make_heavy_model(0.05, 4000.0), 1.0);
  return m;
}

McOptions fast_options() {
  McOptions o;
  o.replications = 150000;
  o.seed = 2009;
  return o;
}

TEST(McEngine, DeterministicAcrossRuns) {
  const auto& m = shared_model();
  const auto a = simulate_multiple(m, 1, 700.0, fast_options());
  const auto b = simulate_multiple(m, 1, 700.0, fast_options());
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  EXPECT_DOUBLE_EQ(a.std_latency, b.std_latency);
}

TEST(McEngine, DeterministicAcrossThreadCounts) {
  const auto& m = shared_model();
  par::ThreadPool pool1(1);
  par::ThreadPool pool8(8);
  auto o1 = fast_options();
  o1.pool = &pool1;
  auto o8 = fast_options();
  o8.pool = &pool8;
  const auto a = simulate_multiple(m, 1, 700.0, o1);
  const auto b = simulate_multiple(m, 1, 700.0, o8);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
}

TEST(McEngine, RejectsBadArguments) {
  const auto& m = shared_model();
  EXPECT_THROW(simulate_multiple(m, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(simulate_multiple(m, 0, 100.0), std::invalid_argument);
  EXPECT_THROW(simulate_delayed(m, 100.0, 50.0), std::invalid_argument);
  EXPECT_THROW(simulate_delayed(m, 100.0, 250.0), std::invalid_argument);
  McOptions o;
  o.replications = 0;
  EXPECT_THROW(simulate_multiple(m, 1, 100.0, o), std::invalid_argument);
}

class SingleAgreement : public ::testing::TestWithParam<double> {};

TEST_P(SingleAgreement, ExpectationSigmaAndSubmissions) {
  const double t_inf = GetParam();
  const auto& m = shared_model();
  const core::MultipleSubmission s(m, 1);
  const auto mc = simulate_multiple(m, 1, t_inf, fast_options());
  const double ej = s.expectation(t_inf);
  const double se = mc.std_latency / std::sqrt(mc.replications);
  EXPECT_NEAR(mc.mean_latency, ej, 6.0 * se + 0.01 * ej);
  EXPECT_NEAR(mc.std_latency, s.std_deviation(t_inf),
              0.03 * s.std_deviation(t_inf));
  EXPECT_NEAR(mc.mean_submissions, s.expected_submissions(t_inf),
              0.02 * s.expected_submissions(t_inf));
  // Single resubmission keeps exactly one copy in flight.
  EXPECT_NEAR(mc.aggregate_parallel, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Timeouts, SingleAgreement,
                         ::testing::Values(250.0, 500.0, 900.0, 2000.0));

class MultiAgreement
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MultiAgreement, ExpectationSigmaAndLoad) {
  const auto [b, t_inf] = GetParam();
  const auto& m = shared_model();
  const core::MultipleSubmission multi(m, b);
  const auto mc = simulate_multiple(m, b, t_inf, fast_options());
  const double ej = multi.expectation(t_inf);
  const double se = mc.std_latency / std::sqrt(mc.replications);
  EXPECT_NEAR(mc.mean_latency, ej, 6.0 * se + 0.01 * ej);
  EXPECT_NEAR(mc.std_latency, multi.std_deviation(t_inf),
              0.04 * multi.std_deviation(t_inf));
  EXPECT_NEAR(mc.mean_submissions, multi.expected_submissions(t_inf),
              0.02 * multi.expected_submissions(t_inf));
  // All b copies stay in flight until the first start: N∥ == b exactly.
  EXPECT_NEAR(mc.aggregate_parallel, static_cast<double>(b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiAgreement,
    ::testing::Combine(::testing::Values(2, 3, 5, 10),
                       ::testing::Values(400.0, 800.0, 1600.0)));

struct DelayedCase {
  double t0, t_inf;
};

class DelayedAgreement : public ::testing::TestWithParam<DelayedCase> {};

TEST_P(DelayedAgreement, ExpectationSigmaSubmissionsAndParallelism) {
  const auto [t0, t_inf] = GetParam();
  const auto& m = shared_model();
  const core::DelayedResubmission d(m);
  const auto mc = simulate_delayed(m, t0, t_inf, fast_options());
  const double ej = d.expectation(t0, t_inf);
  const double se = mc.std_latency / std::sqrt(mc.replications);
  EXPECT_NEAR(mc.mean_latency, ej, 6.0 * se + 0.01 * ej);
  EXPECT_NEAR(mc.std_latency, d.std_deviation(t0, t_inf),
              0.04 * d.std_deviation(t0, t_inf));
  EXPECT_NEAR(mc.mean_submissions, d.expected_submissions(t0, t_inf),
              0.02 * d.expected_submissions(t0, t_inf));
  // E[N∥(J)] (expectation of the per-run ratio).
  EXPECT_NEAR(mc.mean_parallel_ratio, d.expected_parallel_jobs(t0, t_inf),
              0.03 * d.expected_parallel_jobs(t0, t_inf));
}

TEST_P(DelayedAgreement, PaperEq5SidesWithSurvivalFormOnlyWhenExact) {
  // Monte Carlo arbitration of the eq. 5 discrepancy (DESIGN.md §5).
  const auto [t0, t_inf] = GetParam();
  const auto& m = shared_model();
  const core::DelayedResubmission d(m);
  const auto mc = simulate_delayed(m, t0, t_inf, fast_options());
  const double survival_form = d.expectation(t0, t_inf);
  EXPECT_NEAR(mc.mean_latency, survival_form, 0.02 * survival_form);
  const double eq5 = d.expectation_paper_eq5(t0, t_inf);
  if (m.ftilde(t_inf - t0) == 0.0) {
    EXPECT_NEAR(eq5, mc.mean_latency, 0.02 * mc.mean_latency);
  } else {
    // eq5-as-printed over-estimates; it must NOT be closer to MC than the
    // survival form is.
    EXPECT_GE(std::abs(eq5 - mc.mean_latency),
              std::abs(survival_form - mc.mean_latency));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DelayedAgreement,
    ::testing::Values(DelayedCase{200.0, 360.0}, DelayedCase{300.0, 580.0},
                      DelayedCase{400.0, 640.0}, DelayedCase{500.0, 700.0},
                      DelayedCase{700.0, 1100.0}));

TEST(McEngine, ExponentialBaselineHasKnownMean) {
  // Closed-form anchor: exponential latency, no faults -> E_J == mean
  // regardless of timeout.
  const auto src = testutil::make_exponential_model(300.0, 0.0, 20000.0);
  const auto m = testutil::discretize(src, 2.0);
  const auto mc = simulate_multiple(m, 1, 450.0, fast_options());
  EXPECT_NEAR(mc.mean_latency, 300.0, 3.0);
}

}  // namespace
}  // namespace gridsub::mc
