#include "stats/special.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gridsub::stats {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-12);
}

TEST(NormalCdf, TailsAreAccurate) {
  EXPECT_NEAR(normal_cdf(-6.0), 9.865876450376946e-10, 1e-15);
  EXPECT_NEAR(1.0 - normal_cdf(6.0), 9.865876450376946e-10, 1e-15);
}

TEST(NormalPdf, SymmetricAndNormalized) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_DOUBLE_EQ(normal_pdf(2.0), normal_pdf(-2.0));
}

TEST(NormalQuantile, InvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double x = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-12) << "p=" << p;
  }
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
}

TEST(NormalQuantile, RejectsBoundaries) {
  EXPECT_THROW(normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(normal_quantile(1.0), std::domain_error);
  EXPECT_THROW(normal_quantile(-0.5), std::domain_error);
}

TEST(GammaP, MatchesExponentialCdf) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(GammaP, MatchesErlangCdf) {
  // P(2, x) = 1 - (1 + x) exp(-x).
  for (double x : {0.5, 1.0, 3.0, 8.0}) {
    EXPECT_NEAR(gamma_p(2.0, x), 1.0 - (1.0 + x) * std::exp(-x), 1e-12);
  }
}

TEST(GammaP, MatchesHalfShapeClosedForm) {
  // P(1/2, x) = erf(sqrt(x)). x >= a + 1 takes the continued fraction,
  // below it the series.
  for (double x : {0.1, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
}

TEST(GammaP, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(gamma_p(1.0, 700.0), 1.0, 1e-12);
}

TEST(GammaP, RejectsInvalidArguments) {
  EXPECT_THROW(gamma_p(0.0, 1.0), std::domain_error);
  EXPECT_THROW(gamma_p(1.0, -1.0), std::domain_error);
}

}  // namespace
}  // namespace gridsub::stats
