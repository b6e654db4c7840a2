#include "traces/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "stats/lognormal.hpp"
#include "stats/shifted.hpp"

namespace gridsub::traces {
namespace {

GeneratorConfig small_config() {
  GeneratorConfig c;
  c.name = "gen-test";
  c.n_probes = 500;
  c.fault_ratio = 0.1;
  c.seed = 99;
  return c;
}

TEST(Generator, ProducesRequestedProbeCount) {
  const stats::LogNormal bulk(6.0, 1.0);
  const Trace t = generate_probe_campaign(bulk, small_config());
  EXPECT_EQ(t.size(), 500u);
  EXPECT_EQ(t.name(), "gen-test");
}

TEST(Generator, DeterministicInSeed) {
  const stats::LogNormal bulk(6.0, 1.0);
  const Trace a = generate_probe_campaign(bulk, small_config());
  const Trace b = generate_probe_campaign(bulk, small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records()[i].latency, b.records()[i].latency);
    EXPECT_EQ(a.records()[i].status, b.records()[i].status);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const stats::LogNormal bulk(6.0, 1.0);
  auto c1 = small_config();
  auto c2 = small_config();
  c2.seed = 100;
  const Trace a = generate_probe_campaign(bulk, c1);
  const Trace b = generate_probe_campaign(bulk, c2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.records()[i].latency != b.records()[i].latency;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, FaultRatioIsRespected) {
  // Median 55 s, sigma 0.5: the mass above the 10^4 s timeout is about
  // 1e-25, so no draw becomes an outlier.
  const stats::LogNormal bulk(std::log(55.0), 0.5);
  auto c = small_config();
  c.n_probes = 20000;
  c.fault_ratio = 0.25;
  const Trace t = generate_probe_campaign(bulk, c);
  const double observed =
      static_cast<double>(t.count(ProbeStatus::kFault)) /
      static_cast<double>(t.size());
  EXPECT_NEAR(observed, 0.25, 0.01);
  EXPECT_EQ(t.count(ProbeStatus::kOutlier), 0u);
}

TEST(Generator, BulkTailBecomesOutliers) {
  // Median at the 10^4 s timeout: about half the draws exceed it.
  const stats::LogNormal bulk(std::log(10000.0), 0.1);
  auto c = small_config();
  c.fault_ratio = 0.0;
  c.n_probes = 4000;
  const Trace t = generate_probe_campaign(bulk, c);
  const double outlier_share =
      static_cast<double>(t.count(ProbeStatus::kOutlier)) /
      static_cast<double>(t.size());
  EXPECT_NEAR(outlier_share, 0.5, 0.04);
}

TEST(Generator, SubmitTimesAreNonDecreasingPerCompletionOrder) {
  // The constant-in-flight protocol submits a replacement at each
  // completion, so submit times (in log order) never decrease.
  const stats::LogNormal bulk(5.0, 0.8);
  const Trace t = generate_probe_campaign(bulk, small_config());
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t.records()[i - 1].submit_time, t.records()[i].submit_time + 1e9);
  }
  // And the campaign spans a nontrivial duration.
  EXPECT_GT(t.records().back().submit_time, 0.0);
}

TEST(Generator, RejectsDegenerateConfigs) {
  const stats::LogNormal bulk(5.0, 0.8);
  auto c = small_config();
  c.n_probes = 0;
  EXPECT_THROW(generate_probe_campaign(bulk, c), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::traces
