// DKW-propagated uncertainty bands on strategy expectations.

#include "core/uncertainty.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/multiple_submission.hpp"
#include "model/discretized.hpp"
#include "traces/datasets.hpp"
#include "traces/generator.hpp"

namespace gridsub::core {
namespace {

const model::DiscretizedLatencyModel& base_model() {
  static const auto m = model::DiscretizedLatencyModel::from_trace(
      traces::make_trace_by_name("2006-IX"), 1.0);
  return m;
}

TEST(Uncertainty, BandsContainThePointEstimate) {
  const UncertaintyAnalysis ua(base_model(), 2005);
  const auto s = ua.multiple(1, 600.0);
  EXPECT_LE(s.lower, s.estimate);
  EXPECT_LE(s.estimate, s.upper);
  const auto m = ua.multiple(4, 881.0);
  EXPECT_LE(m.lower, m.estimate);
  EXPECT_LE(m.estimate, m.upper);
  const auto d = ua.delayed(339.0, 485.0);
  EXPECT_LE(d.lower, d.estimate);
  EXPECT_LE(d.estimate, d.upper);
}

TEST(Uncertainty, BandsShrinkWithCampaignSize) {
  const UncertaintyAnalysis small(base_model(), 100);
  const UncertaintyAnalysis large(base_model(), 10000);
  const auto ws = small.multiple(1, 600.0);
  const auto wl = large.multiple(1, 600.0);
  EXPECT_LT(wl.upper - wl.lower, ws.upper - ws.lower);
  // DKW epsilon scales as 1/sqrt(n): 10x the width ratio for 100x probes.
  EXPECT_NEAR(small.epsilon() / large.epsilon(), 10.0, 1e-9);
}

TEST(Uncertainty, EdgeModelsBracketTheBase) {
  const UncertaintyAnalysis ua(base_model(), 500);
  for (double t = 100.0; t <= 5000.0; t += 250.0) {
    EXPECT_GE(ua.optimistic().ftilde(t) + 1e-12, base_model().ftilde(t));
    EXPECT_LE(ua.pessimistic().ftilde(t) - 1e-12, base_model().ftilde(t));
  }
  // F(0) stays pinned at zero on both edges.
  EXPECT_DOUBLE_EQ(ua.optimistic().ftilde(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ua.pessimistic().ftilde(0.0), 0.0);
}

TEST(Uncertainty, TinyCampaignCannotCertifyShortTimeouts) {
  // With 20 probes, eps ~ 0.30: a timeout where F~ < eps has an infinite
  // pessimistic expectation — "not enough data", honestly reported.
  const UncertaintyAnalysis ua(base_model(), 20);
  const double t_small = 130.0;  // F~(130) is small on 2006-IX
  ASSERT_LT(base_model().ftilde(t_small), ua.epsilon());
  const auto band = ua.multiple(1, t_small);
  EXPECT_TRUE(std::isinf(band.upper));
  EXPECT_TRUE(std::isfinite(band.lower));
}

TEST(Uncertainty, CoversTheTruthAcrossResamples) {
  // Generate campaigns from a known ground-truth model; the 95% band from
  // each campaign must almost always contain the truth's E_J.
  const auto& truth = base_model();
  const MultipleSubmission oracle(truth, 1);
  const double t_inf = 800.0;
  const double true_ej = oracle.expectation(t_inf);
  int misses = 0;
  const int reps = 30;
  for (int r = 0; r < reps; ++r) {
    traces::GeneratorConfig gen;
    gen.name = "resample";
    gen.n_probes = 400;
    gen.seed = 1000 + static_cast<std::uint64_t>(r);
    gen.fault_ratio = 0.0;
    // Sample latencies straight from the truth's law.
    traces::Trace t("resample", 10000.0);
    stats::Rng rng(gen.seed);
    for (std::size_t i = 0; i < gen.n_probes; ++i) {
      const double latency = truth.sample(rng);
      if (latency < 10000.0) {
        t.add_completed(0.0, latency);
      } else {
        t.add_outlier(0.0);
      }
    }
    const auto est = model::DiscretizedLatencyModel::from_trace(t, 1.0);
    const UncertaintyAnalysis ua(est, gen.n_probes, 0.05);
    const auto band = ua.multiple(1, t_inf);
    if (true_ej < band.lower || true_ej > band.upper) ++misses;
  }
  // 95% nominal coverage, DKW conservative: a couple of misses at most.
  EXPECT_LE(misses, 2);
}

TEST(Uncertainty, FromGridValidation) {
  EXPECT_THROW((void)model::DiscretizedLatencyModel::from_grid({0.0}, 1.0,
                                                               "x"),
               std::invalid_argument);
  EXPECT_THROW((void)model::DiscretizedLatencyModel::from_grid(
                   {0.1, 0.5}, 1.0, "x"),
               std::invalid_argument);  // F(0) != 0
  EXPECT_THROW((void)model::DiscretizedLatencyModel::from_grid(
                   {0.0, 0.5, 0.4}, 1.0, "x"),
               std::invalid_argument);  // decreasing
  const auto m = model::DiscretizedLatencyModel::from_grid(
      {0.0, 0.5, 0.9}, 10.0, "toy");
  EXPECT_DOUBLE_EQ(m.horizon(), 20.0);
  EXPECT_NEAR(m.outlier_ratio(), 0.1, 1e-12);
  EXPECT_NEAR(m.ftilde(5.0), 0.25, 1e-12);
}

}  // namespace
}  // namespace gridsub::core
