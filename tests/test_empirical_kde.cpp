#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numerics/integration.hpp"
#include "stats/kde.hpp"
#include "stats/lognormal.hpp"

namespace gridsub::stats {
namespace {

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed) {
  LogNormal d(5.5, 0.8);
  Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = d.sample(rng);
  return xs;
}

TEST(Kde, PdfIntegratesToOne) {
  const auto xs = lognormal_sample(2000, 7);
  const KernelDensity kde(xs);
  const double mass = numerics::adaptive_simpson(
      [&](double x) { return kde.pdf(x); }, -2000.0, 20000.0, 1e-8);
  EXPECT_NEAR(mass, 1.0, 1e-3);
}

TEST(Kde, ApproximatesTrueDensity) {
  const auto xs = lognormal_sample(50000, 13);
  const KernelDensity kde(xs);
  const LogNormal d(5.5, 0.8);
  for (double x : {150.0, 250.0, 400.0}) {
    EXPECT_NEAR(kde.pdf(x), d.pdf(x), 0.25 * d.pdf(x)) << "x=" << x;
  }
}

TEST(Kde, SilvermanBandwidthScalesWithN) {
  const auto xs_small = lognormal_sample(100, 17);
  const auto xs_large = lognormal_sample(10000, 17);
  EXPECT_GT(KernelDensity::silverman_bandwidth(xs_small),
            KernelDensity::silverman_bandwidth(xs_large));
}

TEST(Kde, ExplicitBandwidthIsUsed) {
  const auto xs = lognormal_sample(100, 19);
  const KernelDensity kde(xs, 12.5);
  EXPECT_DOUBLE_EQ(kde.bandwidth(), 12.5);
}

TEST(Kde, WindowedEvaluationMatchesFullSumFarFromTail) {
  // Evaluating far from all samples must return ~0, not garbage.
  const auto xs = lognormal_sample(1000, 23);
  const KernelDensity kde(xs);
  EXPECT_NEAR(kde.pdf(1e7), 0.0, 1e-12);
}

}  // namespace
}  // namespace gridsub::stats
