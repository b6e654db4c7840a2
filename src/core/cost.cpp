#include "core/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace gridsub::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

CostModel::CostModel(const model::DiscretizedLatencyModel& m)
    : model_(m), delayed_(m), baseline_(MultipleSubmission(m, 1).optimize()) {
  if (!std::isfinite(baseline_.metrics.expectation) ||
      !(baseline_.metrics.expectation > 0.0)) {
    throw std::runtime_error(
        "CostModel: single-resubmission baseline has no finite optimum");
  }
}

double CostModel::delta_cost(double n_parallel, double expectation) const {
  return n_parallel * expectation / baseline_.metrics.expectation;
}

CostEvaluation CostModel::evaluate_delayed(double t0, double t_inf) const {
  CostEvaluation e;
  e.kind = StrategyKind::kDelayedResubmission;
  e.t0 = t0;
  e.t_inf = t_inf;
  e.expectation = delayed_.expectation(t0, t_inf);
  if (!std::isfinite(e.expectation)) {
    e.n_parallel = e.delta_cost = kInf;
    e.n_parallel_fleet = e.delta_cost_fleet = kInf;
    return e;
  }
  e.n_parallel =
      DelayedResubmission::parallel_jobs_at(e.expectation, t0, t_inf);
  e.delta_cost = delta_cost(e.n_parallel, e.expectation);
  e.n_parallel_fleet = delayed_.fleet_parallel_jobs(t0, t_inf);
  e.delta_cost_fleet = delta_cost(e.n_parallel_fleet, e.expectation);
  return e;
}

CostEvaluation CostModel::evaluate_multiple(int b) const {
  const MultipleSubmission multiple(model_, b);
  const TimeoutOptimum opt = multiple.optimize();
  CostEvaluation e;
  e.kind = StrategyKind::kMultipleSubmission;
  e.b = b;
  e.t_inf = opt.t_inf;
  e.expectation = opt.metrics.expectation;
  // All b copies run from submission until the first start, so the billed
  // job-seconds are exactly b·J: the fleet accounting coincides with the
  // paper's N∥ = b.
  e.n_parallel = static_cast<double>(b);
  e.delta_cost = delta_cost(e.n_parallel, e.expectation);
  e.n_parallel_fleet = e.n_parallel;
  e.delta_cost_fleet = e.delta_cost;
  return e;
}

CostEvaluation CostModel::evaluate_single() const {
  CostEvaluation e;
  e.kind = StrategyKind::kSingleResubmission;
  e.t_inf = baseline_.t_inf;
  e.expectation = baseline_.metrics.expectation;
  e.n_parallel = 1.0;
  e.delta_cost = 1.0;
  return e;
}

CostEvaluation CostModel::optimize_delayed_cost(
    double t0_lo, double t0_hi, CostDefinition definition) const {
  const double lo =
      (t0_lo > 0.0) ? t0_lo : std::max(16.0, 4.0 * model_.step());
  const double hi =
      (t0_hi > 0.0) ? t0_hi
                    : std::min(0.5 * model_.horizon(),
                               4.0 * baseline_.metrics.expectation);
  if (!(hi > lo)) {
    throw std::invalid_argument("optimize_delayed_cost: bad bounds");
  }
  // Scores read the Row of the current t0 and equal evaluate_delayed()'s
  // bit for bit; infeasible points are skipped.
  DelayedResubmission::Row row(delayed_);
  const bool fleet = definition == CostDefinition::kFleet;
  double best_t0 = 0.0, best_tinf = 0.0, best = kInf;
  // Δcost >= delta_cost(1, E_J) and E_J is at least the floor of its row
  // and of its column (see "Floors" in delayed_resubmission.hpp), so a
  // floor whose bound is not below `best` covers no point that could
  // replace it.
  const auto cannot_win = [&](double floor) {
    return delta_cost(1.0, floor * (1.0 - kFloorSlack)) >= best;
  };
  const auto visit = [&](double t_inf) {
    if (cannot_win(row.expectation_floor(t_inf))) return;
    const double ej = row.expectation(t_inf);
    if (!std::isfinite(ej)) return;
    const double n_par =
        fleet ? row.expected_job_seconds(t_inf) / ej
              : DelayedResubmission::parallel_jobs_at(ej, row.t0(), t_inf);
    const double v = delta_cost(n_par, ej);
    if (v < best) {
      best = v;
      best_t0 = row.t0();
      best_tinf = t_inf;
    }
  };
  // Coarse integer scan (8 s lattice).
  constexpr double kCoarse = 8.0;
  for (double t0 = std::ceil(lo); t0 <= hi; t0 += kCoarse) {
    row.reset(t0);
    if (cannot_win(row.expectation_floor())) continue;
    const double tinf_hi = std::min(2.0 * t0, model_.horizon());
    for (double t_inf = t0 + 1.0; t_inf <= tinf_hi; t_inf += kCoarse) {
      visit(t_inf);
    }
  }
  if (!std::isfinite(best)) {
    throw std::runtime_error("optimize_delayed_cost: no feasible point");
  }
  // Integer refinement in a window of ±r around the best point. The loop
  // bounds are re-read on every pass, so the window follows the running
  // best: an improvement near the upper edge extends both ranges, and the
  // t∞ range of each later t0 is centred on the best t∞ so far. The search
  // is therefore local, not exhaustive over a fixed square.
  const double r = kCoarse + 2.0;
  for (double t0 = std::max(std::ceil(lo), best_t0 - r);
       t0 <= std::min(hi, best_t0 + r); t0 += 1.0) {
    row.reset(t0);
    if (cannot_win(row.expectation_floor())) continue;
    for (double t_inf = std::max(t0 + 1.0, best_tinf - r);
         t_inf <= std::min({2.0 * t0, model_.horizon(), best_tinf + r});
         t_inf += 1.0) {
      visit(t_inf);
    }
  }
  return evaluate_delayed(best_t0, best_tinf);
}

StabilityReport CostModel::stability(double t0, double t_inf,
                                     int radius) const {
  if (radius < 0) throw std::invalid_argument("stability: radius < 0");
  StabilityReport rep;
  const CostEvaluation base = evaluate_delayed(t0, t_inf);
  rep.base_delta_cost = base.delta_cost;
  rep.max_delta_cost = base.delta_cost;
  for (int d0 = -radius; d0 <= radius; ++d0) {
    for (int di = -radius; di <= radius; ++di) {
      const double p0 = t0 + d0;
      const double pi = t_inf + di;
      if (!delayed_.feasible(p0, pi)) continue;
      const CostEvaluation e = evaluate_delayed(p0, pi);
      if (std::isfinite(e.delta_cost)) {
        rep.max_delta_cost = std::max(rep.max_delta_cost, e.delta_cost);
      }
    }
  }
  rep.max_rel_diff =
      (rep.max_delta_cost - rep.base_delta_cost) / rep.base_delta_cost;
  return rep;
}

}  // namespace gridsub::core
