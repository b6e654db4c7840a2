// Validates the synthetic counterparts of the paper's Table 1 datasets:
// every week must reproduce its calibration targets within sampling noise.

#include "traces/datasets.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "numerics/integration.hpp"
#include "traces/generator.hpp"

namespace gridsub::traces {
namespace {

TEST(Datasets, RegistryHasTheTwelvePaperSets) {
  const auto& all = all_datasets();
  EXPECT_EQ(all.size(), 12u);
  EXPECT_EQ(all.front().name, "2006-IX");
  EXPECT_EQ(all.back().name, "2008-03");
}

TEST(Datasets, TotalProbeCountMatchesThePaper) {
  std::size_t total = 0;
  for (const auto& c : all_datasets()) total += c.n_probes;
  EXPECT_EQ(total, 10893u);  // paper §3.2
}

TEST(Datasets, LookupByNameWorksAndThrowsOnUnknown) {
  EXPECT_EQ(dataset_by_name("2007-52").name, "2007-52");
  EXPECT_THROW(dataset_by_name("2031-01"), std::out_of_range);
}

TEST(Datasets, RhoDerivationMatchesCensoredMeanIdentity) {
  // rho = (mean_with - mean_less) / (timeout - mean_less); spot-check the
  // two weeks quoted in DESIGN.md.
  const auto& w2006 = dataset_by_name("2006-IX");
  EXPECT_NEAR(w2006.outlier_ratio, (1042.0 - 570.0) / (10000.0 - 570.0),
              1e-12);
  const auto& w37 = dataset_by_name("2007-37");
  EXPECT_NEAR(w37.outlier_ratio, (3639.0 - 506.0) / (10000.0 - 506.0),
              1e-12);
}

TEST(Datasets, UnionTraceConcatenatesElevenWeeks) {
  const Trace u = make_union_trace();
  EXPECT_EQ(u.name(), "2007/08");
  EXPECT_EQ(u.size(), 10893u - 2005u);
}

TEST(Datasets, MakeTraceByNameResolvesUnion) {
  EXPECT_EQ(make_trace_by_name("2007/08").size(), 8888u);
  EXPECT_EQ(make_trace_by_name("2006-IX").size(), 2005u);
}

TEST(Datasets, NamesWithUnionContainsThirteenLabels) {
  const auto names = all_dataset_names_with_union();
  EXPECT_EQ(names.size(), 13u);
  EXPECT_EQ(names[0], "2006-IX");
  EXPECT_EQ(names[1], "2007/08");
}

TEST(Datasets, TracesAreDeterministic) {
  const Trace a = make_trace(dataset_by_name("2007-51"));
  const Trace b = make_trace(dataset_by_name("2007-51"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records()[i].latency, b.records()[i].latency);
  }
}

class DatasetCalibration : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetCalibration, BulkMomentsMatchTargetsInExpectation) {
  const auto& config = dataset_by_name(GetParam());
  const auto bulk = calibrated_bulk(config);
  // Condition the bulk below the timeout and check moments analytically:
  // quadrature of the conditional density over [shift, timeout].
  const double lo = config.shift;
  const double hi = kProbeTimeout;
  const double mass = bulk->cdf(hi) - bulk->cdf(lo);
  const auto conditional_pdf = [&](double x) { return bulk->pdf(x) / mass; };
  const double mean = numerics::adaptive_simpson(
      [&](double x) { return x * conditional_pdf(x); }, lo, hi, 1e-8);
  const double variance = numerics::adaptive_simpson(
      [&](double x) { return (x - mean) * (x - mean) * conditional_pdf(x); },
      lo, hi, 1e-8);
  EXPECT_NEAR(mean, config.target_mean, 0.005 * config.target_mean);
  EXPECT_NEAR(std::sqrt(variance), config.target_stddev,
              0.01 * config.target_stddev);
}

TEST_P(DatasetCalibration, GeneratedTraceMatchesTargetsWithinNoise) {
  const auto& config = dataset_by_name(GetParam());
  const Trace t = make_trace(config);
  const auto s = t.stats();
  EXPECT_EQ(s.total, config.n_probes);
  // The generator pins sample moments to the Table 1 targets (up to the
  // clamping residual of the affine correction).
  const double n = static_cast<double>(s.completed);
  EXPECT_NEAR(s.mean_completed, config.target_mean,
              0.005 * config.target_mean);
  EXPECT_NEAR(s.stddev_completed, config.target_stddev,
              0.02 * config.target_stddev);
  EXPECT_NEAR(s.outlier_ratio, config.outlier_ratio,
              5.0 * std::sqrt(config.outlier_ratio *
                              (1.0 - config.outlier_ratio) / n) + 0.01);
}

TEST_P(DatasetCalibration, FaultRatioAccountsForBulkTail) {
  const auto& config = dataset_by_name(GetParam());
  const double fr = fault_ratio_for(config);
  EXPECT_GE(fr, 0.0);
  EXPECT_LT(fr, config.outlier_ratio + 1e-12);
  // Total outlier mass = fr + (1 - fr) * tail.
  const auto bulk = calibrated_bulk(config);
  const double tail = 1.0 - bulk->cdf(kProbeTimeout);
  EXPECT_NEAR(fr + (1.0 - fr) * tail, config.outlier_ratio, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllWeeks, DatasetCalibration,
    ::testing::Values("2006-IX", "2007-36", "2007-37", "2007-38", "2007-39",
                      "2007-50", "2007-51", "2007-52", "2007-53", "2008-01",
                      "2008-02", "2008-03"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (auto& ch : name) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gridsub::traces
