#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gridsub::stats {
namespace {

TEST(Summary, MeanAndVariance) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.5));
}

TEST(Summary, QuantileType7) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Summary, QuantileUnsortedInput) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Summary, ErrorsOnDegenerateInput) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  EXPECT_THROW(mean(empty), std::invalid_argument);
  EXPECT_THROW(variance(one), std::invalid_argument);
  EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(one, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::stats
