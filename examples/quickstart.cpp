// Quickstart: the five-minute tour of gridsub.
//
//  1. Obtain a probe trace (here: the synthetic 2006-IX EGEE-like week).
//  2. Build the defective latency CDF F̃_R and discretize it.
//  3. Ask each strategy model for its optimum.
//  4. Let the planner pick a strategy under an objective.
//  5. Sanity-check the chosen configuration with Monte Carlo.
//  6. Put a finite-sample confidence band on the promise.

#include <cstdio>

#include "core/planner.hpp"
#include "core/uncertainty.hpp"
#include "mc/mc_engine.hpp"
#include "model/discretized.hpp"
#include "traces/datasets.hpp"

int main() {
  using namespace gridsub;

  // 1-2. Trace -> empirical F̃ on a 1 s grid.
  const traces::Trace trace = traces::make_trace_by_name("2006-IX");
  const auto stats = trace.stats();
  std::printf("trace %s: %zu probes, outlier ratio %.1f%%, mean latency "
              "%.0f s (sd %.0f s)\n",
              trace.name().c_str(), trace.size(),
              100.0 * stats.outlier_ratio, stats.mean_completed,
              stats.stddev_completed);
  const auto model = model::DiscretizedLatencyModel::from_trace(trace, 1.0);

  // 3. Strategy optima.
  const core::MultipleSubmission single(model, 1);
  const auto s_opt = single.optimize();
  std::printf("\nsingle resubmission: cancel & resubmit every %.0f s -> "
              "E_J = %.0f s (sigma %.0f s)\n",
              s_opt.t_inf, s_opt.metrics.expectation,
              s_opt.metrics.std_deviation);

  const core::MultipleSubmission multi(model, 3);
  const auto m_opt = multi.optimize();
  std::printf("multiple submission (b=3): timeout %.0f s -> E_J = %.0f s "
              "(3 copies in flight)\n",
              m_opt.t_inf, m_opt.metrics.expectation);

  const core::DelayedResubmission delayed(model);
  const auto d_opt = delayed.optimize();
  std::printf("delayed resubmission: copy at t0 = %.0f s, cancel at "
              "t_inf = %.0f s -> E_J = %.0f s with only %.2f copies on "
              "average\n",
              d_opt.t0, d_opt.t_inf, d_opt.metrics.expectation,
              d_opt.n_parallel);

  // 4. Planner recommendation under the infrastructure-friendly objective.
  const core::StrategyPlanner planner(model);
  const auto rec = planner.recommend();
  std::printf("\nplanner (min-cost objective): %s\n",
              rec.rationale.c_str());

  // 5. Validate the choice by simulating the client protocol.
  mc::McOptions mo;
  mo.replications = 200000;
  if (rec.choice.kind == core::StrategyKind::kDelayedResubmission) {
    const auto mc = mc::simulate_delayed(model, rec.choice.t0,
                                         rec.choice.t_inf, mo);
    std::printf("monte-carlo check: E_J = %.0f s (model said %.0f s), "
                "%.2f submissions per task\n",
                mc.mean_latency, rec.choice.expectation,
                mc.mean_submissions);

    // 6. How much of that is estimation noise? DKW band from the campaign
    //    size behind the model.
    const core::UncertaintyAnalysis ua(model, trace.size());
    const auto band = ua.delayed(rec.choice.t0, rec.choice.t_inf);
    std::printf("95%% confidence from %zu probes: E_J in [%.0f, %.0f] s\n",
                trace.size(), band.lower, band.upper);
  }
  return 0;
}
