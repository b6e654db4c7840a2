// Cost criterion (paper §7, eq. 6) and the stability analysis of Table 5.

#include "core/cost.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"
#include "test_util.hpp"
#include "traces/trace.hpp"

namespace gridsub::core {
namespace {

model::DiscretizedLatencyModel shared_model() {
  static const auto m =
      testutil::discretize(testutil::make_heavy_model(0.05, 4000.0), 1.0);
  return m;
}

TEST(CostModel, SingleResubmissionCostsExactlyOne) {
  const auto m = shared_model();
  const CostModel cost(m);
  const auto single = cost.evaluate_single();
  EXPECT_DOUBLE_EQ(single.delta_cost, 1.0);
  EXPECT_DOUBLE_EQ(single.n_parallel, 1.0);
  EXPECT_EQ(single.kind, StrategyKind::kSingleResubmission);
}

TEST(CostModel, DeltaCostIsLinearInBothFactors) {
  const auto m = shared_model();
  const CostModel cost(m);
  const double base = cost.baseline().metrics.expectation;
  EXPECT_DOUBLE_EQ(cost.delta_cost(1.0, base), 1.0);
  EXPECT_DOUBLE_EQ(cost.delta_cost(2.0, base), 2.0);
  EXPECT_DOUBLE_EQ(cost.delta_cost(1.0, base / 2.0), 0.5);
}

TEST(CostModel, MultipleSubmissionCostGrowsWithB) {
  // Paper Table 4, right block: Δcost = b * E_J(b)/E_J(1) increases with b
  // because E_J saturates while N∥ = b keeps growing.
  const auto m = shared_model();
  const CostModel cost(m);
  double prev = 0.0;
  for (int b : {2, 3, 5, 10, 20}) {
    const auto e = cost.evaluate_multiple(b);
    EXPECT_GT(e.delta_cost, prev) << "b=" << b;
    EXPECT_DOUBLE_EQ(e.n_parallel, static_cast<double>(b));
    prev = e.delta_cost;
  }
  EXPECT_GT(prev, 1.0);  // many copies always cost more than the baseline
}

TEST(CostModel, EvaluateDelayedIsConsistentWithComponents) {
  const auto m = shared_model();
  const CostModel cost(m);
  const DelayedResubmission d(m);
  const double t0 = 400.0, t_inf = 700.0;
  const auto e = cost.evaluate_delayed(t0, t_inf);
  EXPECT_DOUBLE_EQ(e.expectation, d.expectation(t0, t_inf));
  EXPECT_DOUBLE_EQ(
      e.n_parallel,
      DelayedResubmission::parallel_jobs_at(e.expectation, t0, t_inf));
  EXPECT_NEAR(e.delta_cost,
              e.n_parallel * e.expectation /
                  cost.baseline().metrics.expectation,
              1e-12);
}

TEST(CostModel, DelayedCostOptimumBeatsOrMatchesBaseline) {
  // The paper's central §7 claim: a delayed configuration exists with
  // Δcost <= 1 (usually < 1) — less total load than plain resubmission.
  const auto m = shared_model();
  const CostModel cost(m);
  const auto opt = cost.optimize_delayed_cost();
  EXPECT_LE(opt.delta_cost, 1.0 + 1e-9);
  EXPECT_LT(opt.expectation, cost.baseline().metrics.expectation);
  // Integer parameters, as the paper requires for practical resubmission.
  EXPECT_DOUBLE_EQ(opt.t0, std::round(opt.t0));
  EXPECT_DOUBLE_EQ(opt.t_inf, std::round(opt.t_inf));
}

/// The model an advisor key refits on: a 200-observation window with a
/// 4000 s timeout, discretized at 20 s.
model::DiscretizedLatencyModel advisor_window_model() {
  const auto source = testutil::make_heavy_model(0.05, 4000.0);
  stats::Rng rng(20090611);
  traces::Trace window("advisor-window", 4000.0);
  for (int i = 0; i < 200; ++i) {
    const double latency = source.sample(rng);
    if (model::is_outlier_sample(latency) || latency >= window.timeout()) {
      window.add_outlier(0.0);
    } else {
      window.add_completed(0.0, latency);
    }
  }
  return model::DiscretizedLatencyModel::from_trace(window, 20.0);
}

double score(const CostEvaluation& e, CostDefinition definition) {
  return definition == CostDefinition::kFleet ? e.delta_cost_fleet
                                              : e.delta_cost;
}

TEST(CostModel, CostOptimumIsNoWorseThanNearbyIntegerPoints) {
  // The optimizer scores points off per-t0 rows; evaluate_delayed() is
  // one-shot. At the test model's 1 s step and at the advisor's 20 s step,
  // under either accounting, no integer neighbour of the returned optimum
  // may score better by more than roundoff.
  const auto fine = shared_model();
  const auto advisor = advisor_window_model();
  for (const auto* m : {&fine, &advisor}) {
    const CostModel cost(*m);
    for (const auto definition :
         {CostDefinition::kPaperPoint, CostDefinition::kFleet}) {
      const auto opt = cost.optimize_delayed_cost(-1.0, -1.0, definition);
      const double best = score(opt, definition);
      for (int d0 = -3; d0 <= 3; ++d0) {
        for (int di = -3; di <= 3; ++di) {
          const double t0 = opt.t0 + d0;
          const double ti = opt.t_inf + di;
          if (!cost.delayed().feasible(t0, ti)) continue;
          EXPECT_GE(score(cost.evaluate_delayed(t0, ti), definition),
                    best - 1e-9)
              << "step " << m->step() << ", fleet "
              << (definition == CostDefinition::kFleet) << ", offset " << d0
              << "," << di;
        }
      }
    }
  }
}

TEST(CostModel, StabilityReportBoundsTheNeighbourhood) {
  const auto m = shared_model();
  const CostModel cost(m);
  const auto opt = cost.optimize_delayed_cost();
  const auto rep = cost.stability(opt.t0, opt.t_inf, 5);
  EXPECT_DOUBLE_EQ(rep.base_delta_cost, opt.delta_cost);
  EXPECT_GE(rep.max_delta_cost, rep.base_delta_cost);
  EXPECT_GE(rep.max_rel_diff, 0.0);
  // The paper reports <= 14% degradation within radius 5; allow slack but
  // catch pathological cliffs.
  EXPECT_LT(rep.max_rel_diff, 0.5);
}

TEST(CostModel, StabilityRadiusZeroIsBaseOnly) {
  const auto m = shared_model();
  const CostModel cost(m);
  const auto rep = cost.stability(400.0, 700.0, 0);
  EXPECT_DOUBLE_EQ(rep.max_delta_cost, rep.base_delta_cost);
  EXPECT_DOUBLE_EQ(rep.max_rel_diff, 0.0);
}

TEST(CostModel, StabilityRejectsNegativeRadius) {
  const auto m = shared_model();
  const CostModel cost(m);
  EXPECT_THROW((void)cost.stability(400.0, 700.0, -1), std::invalid_argument);
}

TEST(CostModel, OptimizeRejectsBadBounds) {
  const auto m = shared_model();
  const CostModel cost(m);
  EXPECT_THROW((void)cost.optimize_delayed_cost(500.0, 100.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::core
