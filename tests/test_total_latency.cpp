// Total-latency distribution: closed survival forms, quantile inversion,
// and agreement with the strategy models and Monte Carlo.

#include "core/total_latency.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "mc/mc_engine.hpp"
#include "model/discretized.hpp"
#include "traces/datasets.hpp"

namespace gridsub::core {
namespace {

const model::DiscretizedLatencyModel& test_model() {
  static const auto m = model::DiscretizedLatencyModel::from_trace(
      traces::make_trace_by_name("2006-IX"), 1.0);
  return m;
}

TEST(TotalLatency, SurvivalStartsAtOneAndDecreases) {
  const auto d = TotalLatencyDistribution::multiple(test_model(), 1, 600.0);
  EXPECT_DOUBLE_EQ(d.survival(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.survival(-5.0), 1.0);
  double prev = 1.0;
  for (double t = 50.0; t <= 5000.0; t += 50.0) {
    const double s = d.survival(t);
    EXPECT_LE(s, prev + 1e-12) << "t=" << t;
    EXPECT_GT(s, 0.0);
    prev = s;
  }
}

TEST(TotalLatency, SurvivalIsContinuousAcrossRoundBoundaries) {
  const double t_inf = 700.0;
  const auto d = TotalLatencyDistribution::multiple(test_model(), 3, t_inf);
  for (int k = 1; k <= 4; ++k) {
    const double t = k * t_inf;
    EXPECT_NEAR(d.survival(t - 1e-6), d.survival(t + 1e-6), 1e-6)
        << "boundary k=" << k;
  }
}

TEST(TotalLatency, GeometricDecayPerRound) {
  const double t_inf = 600.0;
  const auto d = TotalLatencyDistribution::multiple(test_model(), 1, t_inf);
  const double q = test_model().survival_at(t_inf);
  // S(k*t_inf) = q^k exactly.
  for (int k = 1; k <= 5; ++k) {
    EXPECT_NEAR(d.survival(k * t_inf), std::pow(q, k), 1e-12);
  }
}

TEST(TotalLatency, ExpectationMatchesStrategyModels) {
  const auto& m = test_model();
  const auto single = TotalLatencyDistribution::multiple(m, 1, 596.0);
  EXPECT_NEAR(single.expectation(),
              MultipleSubmission(m, 1).expectation(596.0), 1e-9);

  const auto multi = TotalLatencyDistribution::multiple(m, 5, 887.0);
  EXPECT_NEAR(multi.expectation(),
              MultipleSubmission(m, 5).expectation(887.0), 1e-9);

  const auto del = TotalLatencyDistribution::delayed(m, 339.0, 485.0);
  EXPECT_NEAR(del.expectation(),
              DelayedResubmission(m).expectation(339.0, 485.0), 1e-9);
}

TEST(TotalLatency, ExpectationEqualsIntegralOfSurvival) {
  // E[J] = ∫ S(t) dt — ties the closed form to the survival form.
  const auto d = TotalLatencyDistribution::multiple(test_model(), 2, 880.0);
  double acc = 0.0;
  const double h = 0.5;
  double t = 0.0;
  double prev = 1.0;
  while (prev > 1e-10) {
    t += h;
    const double s = d.survival(t);
    acc += 0.5 * h * (prev + s);
    prev = s;
  }
  EXPECT_NEAR(acc, d.expectation(), 0.002 * d.expectation());
}

TEST(TotalLatency, QuantileInvertsCdf) {
  const auto d = TotalLatencyDistribution::multiple(test_model(), 2, 880.0);
  for (const double p : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999}) {
    const double t = d.quantile(p);
    EXPECT_NEAR(d.cdf(t), p, 1e-6) << "p=" << p;
  }
}

TEST(TotalLatency, QuantileInvertsCdfForDelayed) {
  const auto d = TotalLatencyDistribution::delayed(test_model(), 339.0,
                                                   485.0);
  for (const double p : {0.1, 0.5, 0.9, 0.99, 0.9995}) {
    const double t = d.quantile(p);
    EXPECT_NEAR(d.cdf(t), p, 1e-6) << "p=" << p;
  }
}

TEST(TotalLatency, QuantileZeroIsZeroAndMonotone) {
  const auto d = TotalLatencyDistribution::multiple(test_model(), 1, 600.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  double prev = 0.0;
  for (double p = 0.1; p < 1.0; p += 0.1) {
    const double t = d.quantile(p);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(TotalLatency, SamplingReproducesExpectation) {
  const auto d = TotalLatencyDistribution::multiple(test_model(), 3, 881.0);
  stats::Rng rng(42);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / n, d.expectation(), 0.03 * d.expectation());
}

TEST(TotalLatency, SurvivalMatchesMcTailFrequencies) {
  const auto& m = test_model();
  const auto d = TotalLatencyDistribution::delayed(m, 339.0, 485.0);
  mc::McOptions mo;
  mo.replications = 100000;
  const auto mc = mc::simulate_delayed(m, 339.0, 485.0, mo);
  // Compare E from the distribution with MC (they share no code path).
  EXPECT_NEAR(d.expectation(), mc.mean_latency, 0.02 * mc.mean_latency);
  EXPECT_NEAR(d.std_deviation(), mc.std_latency, 0.05 * mc.std_latency);
}

TEST(TotalLatency, JobSecondsAccounting) {
  const auto& m = test_model();
  const auto single = TotalLatencyDistribution::multiple(m, 1, 596.0);
  EXPECT_DOUBLE_EQ(single.expected_job_seconds(), single.expectation());
  const auto multi = TotalLatencyDistribution::multiple(m, 4, 881.0);
  EXPECT_DOUBLE_EQ(multi.expected_job_seconds(), 4.0 * multi.expectation());
  const auto del = TotalLatencyDistribution::delayed(m, 339.0, 485.0);
  EXPECT_GT(del.expected_job_seconds(), del.expectation());
  EXPECT_LT(del.expected_job_seconds(), 2.0 * del.expectation());
}

TEST(TotalLatency, RejectsInvalidParameters) {
  const auto& m = test_model();
  EXPECT_THROW(TotalLatencyDistribution::multiple(m, 1, 0.0),
               std::invalid_argument);
  EXPECT_THROW(TotalLatencyDistribution::multiple(m, 1, m.horizon() * 2.0),
               std::invalid_argument);
  EXPECT_THROW(TotalLatencyDistribution::multiple(m, 0, 500.0),
               std::invalid_argument);
  EXPECT_THROW(TotalLatencyDistribution::delayed(m, 300.0, 700.0),
               std::invalid_argument);  // t_inf > 2*t0
  EXPECT_THROW(TotalLatencyDistribution::delayed(m, 300.0, 250.0),
               std::invalid_argument);  // t_inf < t0
  const auto ok = TotalLatencyDistribution::multiple(m, 1, 600.0);
  EXPECT_THROW((void)ok.quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)ok.quantile(-0.1), std::invalid_argument);
}

TEST(TotalLatency, BEqualsOneIsSingleResubmission) {
  const auto& m = test_model();
  EXPECT_EQ(TotalLatencyDistribution::multiple(m, 1, 650.0).kind(),
            StrategyKind::kSingleResubmission);
  EXPECT_EQ(TotalLatencyDistribution::multiple(m, 2, 650.0).kind(),
            StrategyKind::kMultipleSubmission);
}

TEST(TotalLatency, MoreCopiesStochasticallyDominate) {
  // More parallel copies => J stochastically smaller at every t.
  const auto& m = test_model();
  const auto b2 = TotalLatencyDistribution::multiple(m, 2, 880.0);
  const auto b6 = TotalLatencyDistribution::multiple(m, 6, 880.0);
  for (double t = 50.0; t <= 4000.0; t += 50.0) {
    EXPECT_LE(b6.survival(t), b2.survival(t) + 1e-12) << "t=" << t;
  }
}

}  // namespace
}  // namespace gridsub::core
