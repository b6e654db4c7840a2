// Cost criterion (paper §7, eq. 6) and the stability analysis of Table 5.

#include "core/cost.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

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

/// optimize_delayed_cost() without its row floors: the same 8 s lattice
/// and ±10 s window that follows the running best, from the public Row,
/// parallel_jobs_at() and delta_cost(). Returns false when no point is
/// feasible.
bool unpruned_cost_optimum(const CostModel& cost, double t0_lo, double t0_hi,
                           CostDefinition definition, CostEvaluation& out) {
  const auto& m = cost.latency_model();
  const double lo = (t0_lo > 0.0) ? t0_lo : std::max(16.0, 4.0 * m.step());
  const double hi =
      (t0_hi > 0.0) ? t0_hi
                    : std::min(0.5 * m.horizon(),
                               4.0 * cost.baseline().metrics.expectation);
  DelayedResubmission::Row row(cost.delayed());
  double best_t0 = 0.0, best_tinf = 0.0;
  double best = std::numeric_limits<double>::infinity();
  const auto visit = [&](double t_inf) {
    const double ej = row.expectation(t_inf);
    if (!std::isfinite(ej)) return;
    const double n_par =
        definition == CostDefinition::kFleet
            ? row.expected_job_seconds(t_inf) / ej
            : DelayedResubmission::parallel_jobs_at(ej, row.t0(), t_inf);
    const double v = cost.delta_cost(n_par, ej);
    if (v < best) {
      best = v;
      best_t0 = row.t0();
      best_tinf = t_inf;
    }
  };
  for (double t0 = std::ceil(lo); t0 <= hi; t0 += 8.0) {
    row.reset(t0);
    for (double t_inf = t0 + 1.0; t_inf <= std::min(2.0 * t0, m.horizon());
         t_inf += 8.0) {
      visit(t_inf);
    }
  }
  if (!std::isfinite(best)) return false;
  for (double t0 = std::max(std::ceil(lo), best_t0 - 10.0);
       t0 <= std::min(hi, best_t0 + 10.0); t0 += 1.0) {
    row.reset(t0);
    for (double t_inf = std::max(t0 + 1.0, best_tinf - 10.0);
         t_inf <= std::min({2.0 * t0, m.horizon(), best_tinf + 10.0});
         t_inf += 1.0) {
      visit(t_inf);
    }
  }
  out = cost.evaluate_delayed(best_t0, best_tinf);
  return true;
}

TEST(CostModel, RowFloorsLeaveTheCostOptimumBitIdentical) {
  // The row floors only skip rows that cannot beat the running best, so
  // every field equals the unpruned scan's, with ==, on every net model,
  // under both accountings, with default and with explicit t0 bounds.
  for (const auto& [label, m] : testutil::floor_net_models()) {
    const CostModel cost(m);
    // Explicit bounds: a fractional sub-range of the default t0 range.
    const double t0_min = std::max(16.0, 4.0 * m.step());
    const double span =
        std::min(0.5 * m.horizon(), 4.0 * cost.baseline().metrics.expectation) -
        t0_min;
    const double bounds[][2] = {
        {-1.0, -1.0}, {t0_min + 0.13 * span + 0.37, t0_min + 0.61 * span}};
    for (const auto& [lo, hi] : bounds) {
      for (const auto definition :
           {CostDefinition::kPaperPoint, CostDefinition::kFleet}) {
        const std::string where =
            label + ", t0 in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], fleet " +
            std::to_string(definition == CostDefinition::kFleet);
        CostEvaluation want;
        if (!unpruned_cost_optimum(cost, lo, hi, definition, want)) {
          EXPECT_THROW((void)cost.optimize_delayed_cost(lo, hi, definition),
                       std::runtime_error)
              << where;
          continue;
        }
        const CostEvaluation got =
            cost.optimize_delayed_cost(lo, hi, definition);
        EXPECT_EQ(got.kind, want.kind) << where;
        EXPECT_EQ(got.t0, want.t0) << where;
        EXPECT_EQ(got.t_inf, want.t_inf) << where;
        EXPECT_EQ(got.b, want.b) << where;
        EXPECT_EQ(got.expectation, want.expectation) << where;
        EXPECT_EQ(got.n_parallel, want.n_parallel) << where;
        EXPECT_EQ(got.delta_cost, want.delta_cost) << where;
        EXPECT_EQ(got.n_parallel_fleet, want.n_parallel_fleet) << where;
        EXPECT_EQ(got.delta_cost_fleet, want.delta_cost_fleet) << where;
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
