#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "model/discretized.hpp"
#include "model/empirical_latency.hpp"
#include "model/parametric_latency.hpp"
#include "stats/lognormal.hpp"
#include "stats/weibull.hpp"
#include "test_util.hpp"
#include "traces/datasets.hpp"

namespace gridsub::model {
namespace {

TEST(ParametricModel, FtildeSaturatesBelowOne) {
  const auto m = testutil::make_heavy_model(0.1, 4000.0);
  EXPECT_DOUBLE_EQ(m.ftilde(0.0), 0.0);
  const double sat = m.ftilde(1e9);
  EXPECT_LT(sat, 1.0);
  EXPECT_NEAR(sat, 1.0 - m.outlier_ratio(), 1e-12);
}

TEST(ParametricModel, FtildeIsScaledBulkCdf) {
  // Weibull with shape 1 is the exponential law (here with mean 100).
  auto bulk = std::make_unique<stats::Weibull>(1.0, 100.0);
  const stats::Weibull ref(1.0, 100.0);
  const ParametricLatencyModel m(std::move(bulk), 0.2, 5000.0);
  for (double t : {10.0, 100.0, 800.0}) {
    EXPECT_NEAR(m.ftilde(t), 0.8 * ref.cdf(t), 1e-12);
  }
}

TEST(ParametricModel, OutlierRatioCombinesFaultsAndTail) {
  // Exponential(mean 1000), i.e. Weibull(1, 1000), with horizon 1000:
  // tail mass e^-1.
  auto bulk = std::make_unique<stats::Weibull>(1.0, 1000.0);
  const ParametricLatencyModel m(std::move(bulk), 0.1, 1000.0);
  const double expected = 1.0 - 0.9 * (1.0 - std::exp(-1.0));
  EXPECT_NEAR(m.outlier_ratio(), expected, 1e-12);
}

TEST(ParametricModel, SamplesOutliersAtTheRightRate) {
  const auto m = testutil::make_heavy_model(0.15, 2000.0);
  stats::Rng rng(3);
  int outliers = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (is_outlier_sample(m.sample(rng))) ++outliers;
  }
  EXPECT_NEAR(outliers / static_cast<double>(n), m.outlier_ratio(), 0.01);
}

TEST(ParametricModel, RejectsBadArguments) {
  EXPECT_THROW(ParametricLatencyModel(nullptr, 0.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW(ParametricLatencyModel(
                   std::make_unique<stats::Weibull>(1.0, 1.0), 1.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW(ParametricLatencyModel(
                   std::make_unique<stats::Weibull>(1.0, 1.0), 0.0, 0.0),
               std::invalid_argument);
}

TEST(EmpiricalModel, MatchesTraceCountsExactly) {
  traces::Trace t("unit", 1000.0);
  t.add_completed(0.0, 100.0);
  t.add_completed(0.0, 200.0);
  t.add_completed(0.0, 300.0);
  t.add_outlier(0.0);
  const EmpiricalLatencyModel m(t);
  EXPECT_DOUBLE_EQ(m.outlier_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(m.ftilde(99.0), 0.0);
  EXPECT_DOUBLE_EQ(m.ftilde(100.0), 0.25);
  EXPECT_DOUBLE_EQ(m.ftilde(250.0), 0.5);
  EXPECT_DOUBLE_EQ(m.ftilde(1e9), 0.75);
}

TEST(EmpiricalModel, SampleReproducesOutlierShare) {
  const auto trace = traces::make_trace_by_name("2007-52");
  const EmpiricalLatencyModel m(trace);
  stats::Rng rng(17);
  int outliers = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (is_outlier_sample(m.sample(rng))) ++outliers;
  }
  EXPECT_NEAR(outliers / static_cast<double>(n), m.outlier_ratio(), 0.005);
}

TEST(EmpiricalModel, RequiresCompletedProbes) {
  traces::Trace t("empty", 1000.0);
  t.add_outlier(0.0);
  EXPECT_THROW(EmpiricalLatencyModel{t}, std::invalid_argument);
}

TEST(DiscretizedModel, InterpolatesSourceFtilde) {
  const auto src = testutil::make_heavy_model();
  const DiscretizedLatencyModel d(src, 1.0);
  for (double t : {0.0, 61.0, 155.5, 700.25, 3999.0}) {
    EXPECT_NEAR(d.ftilde(t), src.ftilde(t), 5e-4) << "t=" << t;
  }
  EXPECT_NEAR(d.outlier_ratio(), src.outlier_ratio(), 1e-6);
  EXPECT_DOUBLE_EQ(d.horizon(), src.horizon());
}

TEST(DiscretizedModel, GridIsMonotone) {
  const auto src = testutil::make_heavy_model();
  const DiscretizedLatencyModel d(src, 2.0);
  const auto grid = d.ftilde_grid();
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GE(grid[i], grid[i - 1]);
  }
}

TEST(DiscretizedModel, DensityIntegratesBackToFtilde) {
  const auto src = testutil::make_heavy_model(0.0, 4000.0);
  const DiscretizedLatencyModel d(src, 1.0);
  // Riemann sum of the finite-difference density over [0, 1000] should
  // recover F̃(1000).
  double acc = 0.0;
  for (double t = 0.5; t < 1000.0; t += 1.0) acc += d.density(t);
  EXPECT_NEAR(acc, d.ftilde(1000.0), 0.01);
}

TEST(DiscretizedModel, InverseTransformSamplingMatchesFtilde) {
  const auto src = testutil::make_heavy_model(0.08, 4000.0);
  const DiscretizedLatencyModel d(src, 1.0);
  stats::Rng rng(23);
  const int n = 200000;
  int below_500 = 0, outliers = 0;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    if (is_outlier_sample(x)) {
      ++outliers;
    } else if (x <= 500.0) {
      ++below_500;
    }
  }
  EXPECT_NEAR(below_500 / static_cast<double>(n), d.ftilde(500.0), 0.005);
  EXPECT_NEAR(outliers / static_cast<double>(n), d.outlier_ratio(), 0.005);
}

TEST(DiscretizedModel, FromTraceAgreesWithEmpiricalModel) {
  const auto trace = traces::make_trace_by_name("2007-53");
  const EmpiricalLatencyModel e(trace);
  const auto d = DiscretizedLatencyModel::from_trace(trace, 1.0);
  for (double t : {50.0, 250.0, 900.0, 5000.0}) {
    EXPECT_NEAR(d.ftilde(t), e.ftilde(t), 2e-3);
  }
}

TEST(DiscretizedModel, RejectsBadStep) {
  const auto src = testutil::make_heavy_model();
  EXPECT_THROW(DiscretizedLatencyModel(src, 0.0), std::invalid_argument);
  EXPECT_THROW(DiscretizedLatencyModel(src, 1e9), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::model
