#include "stats/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/summary.hpp"

namespace gridsub::stats {
namespace {

std::vector<double> draw(const Distribution& d, std::size_t n,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = d.sample(rng);
  return xs;
}

TEST(FitLogNormal, RecoversParameters) {
  const LogNormal truth(5.8, 0.9);
  const auto xs = draw(truth, 50000, 1);
  const auto fit = fit_lognormal_mle(xs);
  EXPECT_NEAR(fit.mu(), 5.8, 0.02);
  EXPECT_NEAR(fit.sigma(), 0.9, 0.02);
}

TEST(FitLogNormal, RejectsNonPositiveData) {
  const std::vector<double> xs{1.0, -2.0, 3.0};
  EXPECT_THROW(fit_lognormal_mle(xs), std::invalid_argument);
}

TEST(FitWeibull, RecoversParameters) {
  const Weibull truth(1.4, 300.0);
  const auto xs = draw(truth, 50000, 2);
  const auto fit = fit_weibull_mle(xs);
  EXPECT_NEAR(fit.shape(), 1.4, 0.03);
  EXPECT_NEAR(fit.scale(), 300.0, 5.0);
}

TEST(FitWeibull, HeavyShapeBelowOne) {
  const Weibull truth(0.6, 200.0);
  const auto xs = draw(truth, 50000, 3);
  const auto fit = fit_weibull_mle(xs);
  EXPECT_NEAR(fit.shape(), 0.6, 0.02);
}

TEST(LogLikelihood, PrefersTheGeneratingModel) {
  const LogNormal truth(5.0, 0.8);
  const auto xs = draw(truth, 20000, 4);
  const double ll_truth = log_likelihood(xs, truth);
  const double ll_wrong = log_likelihood(xs, LogNormal(5.6, 0.8));
  EXPECT_GT(ll_truth, ll_wrong);
}

TEST(LogLikelihood, MinusInfinityOnImpossibleData) {
  const Weibull e(1.0, 1.0);
  const std::vector<double> xs{-1.0};
  EXPECT_TRUE(std::isinf(log_likelihood(xs, e)));
}

TEST(Aic, PenalizesParameters) {
  EXPECT_DOUBLE_EQ(aic(-100.0, 2), 204.0);
  EXPECT_LT(aic(-100.0, 1), aic(-100.0, 3));
}

TEST(KsStatistic, SmallForMatchingModelLargeForWrongModel) {
  const LogNormal truth(5.0, 0.7);
  const auto xs = draw(truth, 5000, 5);
  const double d_match = ks_statistic(xs, truth);
  const double d_wrong = ks_statistic(xs, LogNormal(6.0, 0.7));
  EXPECT_LT(d_match, 0.03);
  EXPECT_GT(d_wrong, 0.25);
}

TEST(KsStatistic, ZeroImpossible) {
  const std::vector<double> empty;
  EXPECT_THROW(ks_statistic(empty, LogNormal(0.0, 1.0)),
               std::invalid_argument);
}

// ---- truncated-moment calibration (the Table 1 machinery) --------------

struct CalibCase {
  double mean, sd;
};

class TruncatedCalibration : public ::testing::TestWithParam<CalibCase> {};

TEST_P(TruncatedCalibration, HitsTargetConditionalMoments) {
  const auto [target_mean, target_sd] = GetParam();
  const double t_cut = 10000.0;
  const auto fit =
      calibrate_truncated_lognormal(target_mean, target_sd, t_cut);
  ASSERT_TRUE(fit.converged)
      << "mean=" << target_mean << " sd=" << target_sd;
  const LogNormal d(fit.mu, fit.sigma);
  const double m1 = d.truncated_raw_moment(1, t_cut);
  const double m2 = d.truncated_raw_moment(2, t_cut);
  EXPECT_NEAR(m1, target_mean, 1e-3 * target_mean);
  EXPECT_NEAR(std::sqrt(m2 - m1 * m1), target_sd, 1e-3 * target_sd);
}

TEST_P(TruncatedCalibration, EmpiricalCheckBySampling) {
  const auto [target_mean, target_sd] = GetParam();
  const double t_cut = 10000.0;
  const auto fit =
      calibrate_truncated_lognormal(target_mean, target_sd, t_cut);
  ASSERT_TRUE(fit.converged);
  // Rejection sampling: draws from the fitted law, kept below the cut.
  const LogNormal d(fit.mu, fit.sigma);
  Rng rng(6);
  std::vector<double> xs;
  xs.reserve(200000);
  while (xs.size() < 200000) {
    const double x = d.sample(rng);
    if (x <= t_cut) xs.push_back(x);
  }
  EXPECT_NEAR(mean(xs), target_mean, 0.02 * target_mean);
  EXPECT_NEAR(stddev(xs), target_sd, 0.05 * target_sd);
}

// Covers the paper's Table 1 extremes: 2008-01 (sd < mean) through 2008-03
// (sd ≈ 2.2 × mean).
INSTANTIATE_TEST_SUITE_P(
    Table1Regimes, TruncatedCalibration,
    ::testing::Values(CalibCase{434.0, 317.0}, CalibCase{570.0, 886.0},
                      CalibCase{660.0, 1046.0}, CalibCase{538.0, 1196.0},
                      CalibCase{418.0, 547.0}));

TEST(TruncatedCalibrationErrors, RejectsImpossibleTargets) {
  EXPECT_THROW(calibrate_truncated_lognormal(-5.0, 100.0, 1000.0),
               std::invalid_argument);
  EXPECT_THROW(calibrate_truncated_lognormal(2000.0, 100.0, 1000.0),
               std::invalid_argument);
  EXPECT_THROW(calibrate_truncated_lognormal(500.0, 0.0, 1000.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::stats
