// The DKW band that sizes probe campaigns.

#include "stats/gof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/lognormal.hpp"
#include "stats/rng.hpp"

namespace gridsub::stats {
namespace {

TEST(Dkw, MatchesClosedForm) {
  EXPECT_NEAR(dkw_epsilon(100, 0.05),
              std::sqrt(std::log(2.0 / 0.05) / 200.0), 1e-12);
  // Quadrupling the sample halves the band.
  EXPECT_NEAR(dkw_epsilon(400, 0.05), 0.5 * dkw_epsilon(100, 0.05), 1e-12);
}

TEST(Dkw, CoversTheEcdfEmpirically) {
  // The band is a guarantee: check coverage over many replications.
  const LogNormal dist(6.0, 0.8);
  const std::size_t n = 300;
  const double eps = dkw_epsilon(n, 0.05);
  Rng rng(6);
  int violations = 0;
  const int reps = 200;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = dist.sample(rng);
    std::sort(xs.begin(), xs.end());
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = dist.cdf(xs[i]);
      worst = std::max(worst,
                       std::max(std::abs(f - static_cast<double>(i) / n),
                                std::abs(static_cast<double>(i + 1) / n -
                                         f)));
    }
    if (worst > eps) ++violations;
  }
  // Nominal failure rate 5%; DKW is conservative, so observed should be
  // clearly below ~10% of reps.
  EXPECT_LT(violations, reps / 10);
}

TEST(Dkw, ValidatesArguments) {
  EXPECT_THROW((void)dkw_epsilon(0, 0.05), std::invalid_argument);
  EXPECT_THROW((void)dkw_epsilon(100, 0.0), std::invalid_argument);
  EXPECT_THROW((void)dkw_epsilon(100, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::stats
