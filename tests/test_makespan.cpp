// Makespan model: order statistics of the total latency across a bag of
// tasks, chains with barriers, and Monte Carlo validation.

#include "workflow/makespan.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "model/discretized.hpp"
#include "traces/datasets.hpp"

namespace gridsub::workflow {
namespace {

const model::DiscretizedLatencyModel& test_model() {
  static const auto m = model::DiscretizedLatencyModel::from_trace(
      traces::make_trace_by_name("2006-IX"), 1.0);
  return m;
}

MakespanModel single_model(double t_inf = 596.0) {
  return MakespanModel(
      core::TotalLatencyDistribution::multiple(test_model(), 1, t_inf));
}

TEST(Makespan, SingleTaskReducesToExpectedLatency) {
  const auto m = single_model();
  EXPECT_NEAR(m.expected_max_latency(1), m.distribution().expectation(),
              1e-9);
  const BagOfTasks bag{1, 1800.0};
  EXPECT_NEAR(m.estimate(bag).expectation,
              m.distribution().expectation() + 1800.0, 1e-9);
}

TEST(Makespan, ExpectedMaxIsMonotoneInBagSize) {
  const auto m = single_model();
  double prev = 0.0;
  for (const std::size_t n : {1u, 2u, 5u, 10u, 50u, 100u, 500u}) {
    const double v = m.expected_max_latency(n);
    EXPECT_GT(v, prev) << "n=" << n;
    prev = v;
  }
}

TEST(Makespan, MaxGrowsSubLinearly) {
  // Doubling the bag must add less than the one-task expectation.
  const auto m = single_model();
  const double e100 = m.expected_max_latency(100);
  const double e200 = m.expected_max_latency(200);
  EXPECT_LT(e200 - e100, m.distribution().expectation());
}

TEST(Makespan, QuantileOfMaxUsesRootTransform) {
  const auto m = single_model();
  const auto& d = m.distribution();
  const std::size_t n = 25;
  const double p = 0.9;
  const double q = m.max_latency_quantile(n, p);
  // P(max <= q) = F(q)^n must equal p.
  EXPECT_NEAR(std::pow(d.cdf(q), static_cast<double>(n)), p, 1e-6);
}

TEST(Makespan, EstimateQuantilesAreOrdered) {
  const auto m = single_model();
  const BagOfTasks bag{50, 900.0};
  const auto e = m.estimate(bag);
  EXPECT_LT(bag.runtime, e.median);
  EXPECT_LT(e.median, e.p95);
  EXPECT_LE(e.p95, e.p99);
  EXPECT_GT(e.expectation, bag.runtime);
}

TEST(Makespan, McAgreesWithQuadrature) {
  const auto m = single_model();
  const BagOfTasks bag{20, 0.0};
  const auto mc = m.simulate(bag, 20000, 7);
  const auto analytic = m.expected_max_latency(20);
  EXPECT_NEAR(mc.mean, analytic, 0.03 * analytic);
}

TEST(Makespan, McAgreesForMultipleSubmission) {
  MakespanModel m(
      core::TotalLatencyDistribution::multiple(test_model(), 3, 881.0));
  const BagOfTasks bag{64, 0.0};
  const auto mc = m.simulate(bag, 15000, 11);
  EXPECT_NEAR(mc.mean, m.expected_max_latency(64),
              0.04 * m.expected_max_latency(64));
}

TEST(Makespan, McAgreesForDelayed) {
  MakespanModel m(
      core::TotalLatencyDistribution::delayed(test_model(), 339.0, 485.0));
  const BagOfTasks bag{32, 0.0};
  const auto mc = m.simulate(bag, 15000, 13);
  EXPECT_NEAR(mc.mean, m.expected_max_latency(32),
              0.04 * m.expected_max_latency(32));
}

TEST(Makespan, MultipleSubmissionShrinksTheTailFasterThanTheMean) {
  // The headline application-level effect: at the per-job level b=5 halves
  // E_J; at the bag level (n large) the gain is driven by the tail and is
  // at least as large.
  const auto& lm = test_model();
  MakespanModel single(core::TotalLatencyDistribution::multiple(lm, 1, 596.0));
  MakespanModel multi(core::TotalLatencyDistribution::multiple(lm, 5,
                                                               887.0));
  const double gain_1 = single.expected_max_latency(1) /
                        multi.expected_max_latency(1);
  const double gain_100 = single.expected_max_latency(100) /
                          multi.expected_max_latency(100);
  EXPECT_GT(gain_100, gain_1);
}

TEST(Makespan, ChainAddsStageMakespans) {
  const auto m = single_model();
  const WorkflowChain chain{{10, 600.0}, {40, 300.0}, {1, 100.0}};
  const double total = m.expected_chain_makespan(chain);
  double manual = 0.0;
  for (const auto& stage : chain) {
    manual += m.expected_max_latency(stage.n_tasks) + stage.runtime;
  }
  EXPECT_NEAR(total, manual, 1e-9);
  EXPECT_GT(total, compute_floor(chain));
}

TEST(Makespan, JobSecondsScaleLinearlyWithBagSize) {
  MakespanModel m(
      core::TotalLatencyDistribution::multiple(test_model(), 4, 881.0));
  const auto small = m.estimate({10, 120.0});
  const auto big = m.estimate({100, 120.0});
  EXPECT_NEAR(big.job_seconds, 10.0 * small.job_seconds, 1e-6);
}

TEST(Makespan, ValidatesInputs) {
  const auto m = single_model();
  EXPECT_THROW((void)m.expected_max_latency(0), std::invalid_argument);
  EXPECT_THROW((void)m.estimate({0, 10.0}), std::invalid_argument);
  EXPECT_THROW((void)m.estimate({5, -1.0}), std::invalid_argument);
  EXPECT_THROW((void)m.expected_chain_makespan({}), std::invalid_argument);
  EXPECT_THROW((void)m.simulate({5, 0.0}, 0), std::invalid_argument);
  EXPECT_THROW((void)m.max_latency_quantile(5, 1.0), std::invalid_argument);
}

TEST(Makespan, ApplicationHelpers) {
  const WorkflowChain chain{{10, 600.0}, {40, 300.0}};
  EXPECT_EQ(total_tasks(chain), 50u);
  EXPECT_DOUBLE_EQ(compute_floor(chain), 900.0);
}

class MakespanStrategySweep
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MakespanStrategySweep, MoreRedundancyNeverHurtsTheBag) {
  // Property: for any bag size, E[makespan] is non-increasing in b at a
  // fixed collection timeout.
  const std::size_t n = GetParam();
  const auto& lm = test_model();
  double prev = std::numeric_limits<double>::infinity();
  for (const int b : {1, 2, 4, 8}) {
    MakespanModel m(
        core::TotalLatencyDistribution::multiple(lm, b, 900.0));
    const double v = m.expected_max_latency(n);
    EXPECT_LE(v, prev * (1.0 + 1e-9)) << "b=" << b << " n=" << n;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(BagSizes, MakespanStrategySweep,
                         ::testing::Values(1, 4, 16, 64, 256, 1024));

}  // namespace
}  // namespace gridsub::workflow
