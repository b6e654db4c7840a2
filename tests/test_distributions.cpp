// Family-wide property tests over every parametric distribution, plus
// family-specific closed-form checks.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "numerics/integration.hpp"
#include "stats/distribution.hpp"
#include "stats/gamma.hpp"
#include "stats/lognormal.hpp"
#include "stats/weibull.hpp"

namespace gridsub::stats {
namespace {

struct Case {
  std::string label;
  std::function<DistributionPtr()> make;
};

class DistributionProperties : public ::testing::TestWithParam<Case> {};

TEST_P(DistributionProperties, CdfIsMonotoneFromZeroToOne) {
  const auto d = GetParam().make();
  double prev = -1.0;
  for (double x = 0.0; x <= 5000.0; x += 25.0) {
    const double c = d->cdf(x);
    EXPECT_GE(c, prev - 1e-15);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(d->cdf(1e12), 1.0, 1e-6);
}

TEST_P(DistributionProperties, QuantileInvertsCdf) {
  const auto d = GetParam().make();
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = d->quantile(p);
    EXPECT_NEAR(d->cdf(x), p, 1e-6) << "p=" << p;
  }
}

TEST_P(DistributionProperties, PdfIntegratesToCdfDifference) {
  const auto d = GetParam().make();
  const double lo = d->quantile(0.1);
  const double hi = d->quantile(0.9);
  const double integral = numerics::adaptive_simpson(
      [&](double x) { return d->pdf(x); }, lo, hi, 1e-10);
  EXPECT_NEAR(integral, 0.8, 1e-5);
}

TEST_P(DistributionProperties, SampleMomentsMatchTheory) {
  const auto d = GetParam().make();
  Rng rng(314159);
  const int n = 400000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = d->sample(rng);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  const double sd = std::sqrt(d->variance());
  EXPECT_NEAR(mean, d->mean(), 6.0 * sd / std::sqrt(n) + 1e-9)
      << d->name();
  // Variance estimate needs a looser band (4th-moment dependent).
  EXPECT_NEAR(var, d->variance(), 0.12 * d->variance() + 1e-9) << d->name();
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionProperties,
    ::testing::Values(
        Case{"lognormal",
             [] { return DistributionPtr(new LogNormal(5.5, 0.8)); }},
        Case{"lognormal_heavy",
             [] { return DistributionPtr(new LogNormal(5.0, 1.6)); }},
        Case{"weibull_light",
             [] { return DistributionPtr(new Weibull(1.8, 400.0)); }},
        Case{"weibull_heavy",
             [] { return DistributionPtr(new Weibull(0.7, 300.0)); }},
        Case{"gamma_small_shape",
             [] { return DistributionPtr(new GammaDist(0.6, 200.0)); }},
        Case{"gamma_large_shape",
             [] { return DistributionPtr(new GammaDist(6.0, 80.0)); }}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.label;
    });

// ---- family-specific checks -------------------------------------------

TEST(LogNormalDist, TruncatedMomentConvergesToFullMoment) {
  const LogNormal d(6.0, 1.0);
  EXPECT_NEAR(d.truncated_raw_moment(1, 1e9), d.mean(), 1e-6);
  const double m2 = d.variance() + d.mean() * d.mean();
  EXPECT_NEAR(d.truncated_raw_moment(2, 1e12), m2, 1e-3);
}

TEST(LogNormalDist, TruncatedMomentIsBelowFullMoment) {
  const LogNormal d(6.0, 1.2);
  EXPECT_LT(d.truncated_raw_moment(1, d.mean()), d.mean());
}

TEST(LogNormalDist, RejectsBadSigma) {
  EXPECT_THROW(LogNormal(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LogNormal(0.0, -1.0), std::invalid_argument);
}

TEST(WeibullDist, ShapeOneIsExponential) {
  const Weibull w(1.0, 250.0);
  for (double x : {10.0, 100.0, 500.0, 2000.0}) {
    EXPECT_NEAR(w.cdf(x), 1.0 - std::exp(-x / 250.0), 1e-12);
  }
}

TEST(GammaDistTest, MeanVarianceClosedForm) {
  const GammaDist g(3.0, 50.0);
  EXPECT_DOUBLE_EQ(g.mean(), 150.0);
  EXPECT_DOUBLE_EQ(g.variance(), 7500.0);
}

}  // namespace
}  // namespace gridsub::stats
