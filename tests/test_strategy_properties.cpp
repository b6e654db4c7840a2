// Cross-strategy property sweeps over all 13 datasets: the ordering and
// monotonicity claims the paper states in prose, verified as invariants
// on every synthetic week (not just 2006-IX).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "core/total_latency.hpp"
#include "model/discretized.hpp"
#include "stats/rng.hpp"
#include "traces/datasets.hpp"

namespace gridsub::core {
namespace {

class AllDatasets : public ::testing::TestWithParam<std::string> {
 protected:
  static const model::DiscretizedLatencyModel& model() {
    static std::map<std::string, model::DiscretizedLatencyModel> cache;
    const auto name = GetParam();
    auto it = cache.find(name);
    if (it == cache.end()) {
      it = cache
               .emplace(name, model::DiscretizedLatencyModel::from_trace(
                                  traces::make_trace_by_name(name), 2.0))
               .first;
    }
    return it->second;
  }
};

TEST_P(AllDatasets, OptimalEjDecreasesWithB) {
  // Paper §5: "the higher the value of b, the smaller the minimal
  // expectation" — on every week.
  double prev = std::numeric_limits<double>::infinity();
  for (const int b : {1, 2, 3, 5, 8}) {
    const double ej =
        MultipleSubmission(model(), b).optimize().metrics.expectation;
    EXPECT_LT(ej, prev * (1.0 + 1e-12)) << "b=" << b;
    prev = ej;
  }
}

TEST_P(AllDatasets, MarginalGainOfBShrinks) {
  // Paper Table 2, last column: adding one copy matters less the more
  // copies there already are.
  const double e1 =
      MultipleSubmission(model(), 1).optimize().metrics.expectation;
  const double e2 =
      MultipleSubmission(model(), 2).optimize().metrics.expectation;
  const double e5 =
      MultipleSubmission(model(), 5).optimize().metrics.expectation;
  const double e6 =
      MultipleSubmission(model(), 6).optimize().metrics.expectation;
  EXPECT_GT(e1 - e2, e5 - e6);
}

TEST_P(AllDatasets, DelayedOptimumBeatsSingleOptimum) {
  // Paper Table 3: "All E_J values are below E_J from the single
  // resubmission strategy" — the delayed global optimum in particular.
  const double single =
      MultipleSubmission(model(), 1).optimize().metrics.expectation;
  const auto delayed = DelayedResubmission(model()).optimize();
  EXPECT_LE(delayed.metrics.expectation, single * (1.0 + 1e-9));
}

TEST_P(AllDatasets, DelayedSitsBetweenSingleAndDouble) {
  // Paper §6: delayed beats single but not multiple with b >= 2, at the
  // respective latency optima.
  const double single =
      MultipleSubmission(model(), 1).optimize().metrics.expectation;
  const double twin =
      MultipleSubmission(model(), 2).optimize().metrics.expectation;
  const auto delayed = DelayedResubmission(model()).optimize();
  EXPECT_LE(delayed.metrics.expectation, single * (1.0 + 1e-9));
  EXPECT_GE(delayed.metrics.expectation, twin * (1.0 - 1e-9));
}

TEST_P(AllDatasets, SigmaShrinksWithB) {
  // Paper Table 2: sigma_J decreases with b, concentrating J around E_J.
  double prev = std::numeric_limits<double>::infinity();
  for (const int b : {1, 3, 6, 10}) {
    const auto opt = MultipleSubmission(model(), b).optimize();
    EXPECT_LT(opt.metrics.std_deviation, prev * (1.0 + 1e-12))
        << "b=" << b;
    prev = opt.metrics.std_deviation;
  }
}

TEST_P(AllDatasets, ExpectedSubmissionsMatchesRoundFailureGeometry) {
  // Single resubmission submits Geometric(F~(t_inf)) jobs: 1/F~(t_inf).
  const auto& m = model();
  const MultipleSubmission s(m, 1);
  for (const double t_inf : {500.0, 1000.0, 3000.0}) {
    const double f = m.ftilde(t_inf);
    if (f <= 0.0) continue;
    EXPECT_NEAR(s.expected_submissions(t_inf), 1.0 / f, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weeks, AllDatasets,
    ::testing::ValuesIn(traces::all_dataset_names_with_union()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (auto& ch : name) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      return name;
    });

TEST(ParallelJobsFormula, StaysWithinThePaperBounds) {
  // Paper §6.1: N∥ in [1, 2 - 1/(n+1)] with n = floor(l / t0).
  stats::Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const double t0 = rng.uniform(10.0, 1000.0);
    const double t_inf = rng.uniform(t0 * (1.0 + 1e-6), 2.0 * t0);
    const double l = rng.uniform(1.0, 20.0 * t0);
    const double n_par = DelayedResubmission::parallel_jobs_at(l, t0, t_inf);
    const double n = std::floor(l / t0);
    EXPECT_GE(n_par, 1.0 - 1e-9) << "t0=" << t0 << " tinf=" << t_inf
                                 << " l=" << l;
    EXPECT_LE(n_par, 2.0 - 1.0 / (n + 1.0) + 1e-9)
        << "t0=" << t0 << " tinf=" << t_inf << " l=" << l;
  }
}

TEST(ParallelJobsFormula, ApproachesTheRatioAsymptote) {
  // Paper §6.1: lim_{n->inf} N∥ = t_inf / t0.
  const double t0 = 100.0, t_inf = 170.0;
  const double far = DelayedResubmission::parallel_jobs_at(1e7, t0, t_inf);
  EXPECT_NEAR(far, t_inf / t0, 1e-3);
}

TEST(ParallelJobsFormula, MatchesThePaperCaseSplit) {
  // Hand-checked instances of the four §6.1 cases.
  const double t0 = 100.0, t_inf = 150.0;
  // n = 0: l < t0.
  EXPECT_DOUBLE_EQ(DelayedResubmission::parallel_jobs_at(60.0, t0, t_inf),
                   1.0);
  // n = 1, l < t_inf: N = 2 - t0/l.
  EXPECT_NEAR(DelayedResubmission::parallel_jobs_at(120.0, t0, t_inf),
              2.0 - t0 / 120.0, 1e-12);
  // n = 1, l >= t_inf: (t0 + 2(t_inf - t0) + (l - t_inf)) / l.
  EXPECT_NEAR(DelayedResubmission::parallel_jobs_at(180.0, t0, t_inf),
              (t0 + 2.0 * (t_inf - t0) + (180.0 - t_inf)) / 180.0, 1e-12);
  // n = 2, l in I0 = [2 t0, t0 + t_inf): t0 + t_inf + 2(l - 2 t0), over l.
  EXPECT_NEAR(DelayedResubmission::parallel_jobs_at(230.0, t0, t_inf),
              (t0 + t_inf + 2.0 * (230.0 - 2.0 * t0)) / 230.0, 1e-12);
  // n = 2, l in I1 = [t0 + t_inf, 3 t0): one extra lone stretch.
  EXPECT_NEAR(
      DelayedResubmission::parallel_jobs_at(270.0, t0, t_inf),
      (t0 + t_inf + 2.0 * (t_inf - t0) + (270.0 - t0 - t_inf)) / 270.0,
      1e-12);
}

TEST(TotalLatencyOrdering, DelayedDominatesSingleAtSameTimeout) {
  // Adding the staggered copy can only speed things up: P(J > t) for
  // delayed <= P(J > t) for single resubmission with the same t_inf.
  const auto m = model::DiscretizedLatencyModel::from_trace(
      traces::make_trace_by_name("2006-IX"), 2.0);
  const double t0 = 400.0, t_inf = 700.0;
  const auto single = TotalLatencyDistribution::multiple(m, 1, t_inf);
  const auto delayed = TotalLatencyDistribution::delayed(m, t0, t_inf);
  for (double t = 100.0; t <= 6000.0; t += 100.0) {
    EXPECT_LE(delayed.survival(t), single.survival(t) + 1e-9) << "t=" << t;
  }
}

}  // namespace
}  // namespace gridsub::core
