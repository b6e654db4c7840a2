// The Shifted location wrapper.

#include <gtest/gtest.h>

#include <memory>

#include "stats/lognormal.hpp"
#include "stats/rng.hpp"
#include "stats/shifted.hpp"
#include "stats/weibull.hpp"

namespace gridsub::stats {
namespace {

TEST(ShiftedDist, TranslatesAllQuantities) {
  // Weibull with shape 1 is the exponential law with mean 100.
  const Shifted s(std::make_unique<Weibull>(1.0, 100.0), 100.0);
  const Weibull e(1.0, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), e.mean() + 100.0);
  EXPECT_DOUBLE_EQ(s.variance(), e.variance());
  EXPECT_DOUBLE_EQ(s.cdf(150.0), e.cdf(50.0));
  EXPECT_DOUBLE_EQ(s.pdf(150.0), e.pdf(50.0));
  EXPECT_DOUBLE_EQ(s.quantile(0.5), e.quantile(0.5) + 100.0);
  EXPECT_DOUBLE_EQ(s.support_lower(), 100.0);
}

TEST(ShiftedDist, NothingBelowTheFloor) {
  const Shifted s(std::make_unique<LogNormal>(5.0, 1.0), 60.0);
  EXPECT_DOUBLE_EQ(s.cdf(59.9), 0.0);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(s.sample(rng), 60.0);
}

}  // namespace
}  // namespace gridsub::stats
