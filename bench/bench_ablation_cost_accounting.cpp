// Ablation: how Δcost (eq. 6) depends on the N∥ accounting.
//
// The paper evaluates N∥ at the single point l = E_J (§6.2). But the load
// an administrator bills is E[job-seconds] = E[N∥(J)·J], and since
// N∥(l)·l is convex in l, the point estimate is biased low (Jensen). This
// bench quantifies the bias across the ratio sweep of Table 3/4 and
// re-runs the Δcost minimization under the exact fleet accounting, with
// Monte Carlo as the referee.
//
// Both stages are campaigns: one cell per ratio for the sweep (cells on a
// single-thread pool because the MC referee inside each spreads across
// the shared pool), one cell per accounting for the minima.

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/cost.hpp"
#include "exp/campaign.hpp"
#include "mc/mc_engine.hpp"
#include "report/table.hpp"

int main() {
  using namespace gridsub;
  const std::size_t mc_reps = bench::quick_mode() ? 20000 : 200000;
  bench::print_header(
      "ablation_cost_accounting",
      "Δcost (eq. 6 / Tables 4-5) under point vs fleet N∥ accounting",
      "2006-IX; MC = " + std::to_string(mc_reps) +
          " replications referee");

  const auto m = bench::load_model("2006-IX");
  const core::CostModel cost(m);
  const auto& delayed = cost.delayed();

  const std::vector<double> ratios = {1.1, 1.2, 1.25, 1.3, 1.4,
                                      1.5, 1.6, 1.8, 2.0};

  exp::CampaignAxes axes;
  // mc_reps is an evaluator parameter, so it joins the campaign name: the
  // quick and full runs write different campaign JSON files.
  axes.name = "ablation_cost_accounting_" + std::to_string(mc_reps);
  axes.scenario_axis = "t_inf/t0";
  axes.strategy_axis = "stage";
  for (const double ratio : ratios) {
    char label[16];
    std::snprintf(label, sizeof(label), "%.2f", ratio);
    axes.scenario_labels.emplace_back(label);
  }
  axes.strategy_labels = {"sweep"};
  axes.root_seed = 20090611;

  par::ThreadPool cell_pool(1);
  exp::CampaignOptions options;
  options.pool = &cell_pool;

  const auto result = bench::run_campaign(
      axes,
      [&](const exp::CellContext& ctx) {
        const auto opt = delayed.optimize_with_ratio(ratios[ctx.scenario]);
        const auto eval = cost.evaluate_delayed(opt.t0, opt.t_inf);
        mc::McOptions mo;
        mo.replications = mc_reps;
        mo.seed = ctx.seed;
        const auto mc = mc::simulate_delayed(m, opt.t0, opt.t_inf, mo);
        return exp::CellMetrics{{"t0", opt.t0},
                                {"t_inf", opt.t_inf},
                                {"ej", eval.expectation},
                                {"npar_point", eval.n_parallel},
                                {"npar_fleet", eval.n_parallel_fleet},
                                {"npar_mc", mc.aggregate_parallel},
                                {"dcost_point", eval.delta_cost},
                                {"dcost_fleet", eval.delta_cost_fleet}};
      },
      options);

  // ---- Δcost minima under each accounting (pure analytic cells) ----
  exp::CampaignAxes min_axes;
  min_axes.name = "ablation_cost_accounting_minima";
  min_axes.scenario_axis = "accounting";
  min_axes.strategy_axis = "stage";
  min_axes.scenario_labels = {"paper point (N// at E_J)",
                              "fleet (E[job-seconds]/E_J)"};
  min_axes.strategy_labels = {"optimize"};
  min_axes.root_seed = 20090611;

  const auto minima = bench::run_campaign(
      min_axes, [&](const exp::CellContext& ctx) {
        const auto opt =
            ctx.scenario == 0
                ? cost.optimize_delayed_cost()
                : cost.optimize_delayed_cost(-1.0, -1.0,
                                             core::CostDefinition::kFleet);
        return exp::CellMetrics{{"t0", opt.t0},
                                {"t_inf", opt.t_inf},
                                {"ej", opt.expectation},
                                {"dcost_point", opt.delta_cost},
                                {"dcost_fleet", opt.delta_cost_fleet}};
      });

  report::Table table({"t_inf/t0", "t0 (s)", "t_inf (s)", "E_J (s)",
                       "N// point", "N// fleet", "N// MC", "dcost point",
                       "dcost fleet"});
  for (std::size_t sc = 0; sc < ratios.size(); ++sc) {
    table.row()
        .cell(ratios[sc], 2)
        .cell(result.mean(sc, 0, "t0"), 0)
        .cell(result.mean(sc, 0, "t_inf"), 0)
        .cell(result.mean(sc, 0, "ej"), 1)
        .cell(result.mean(sc, 0, "npar_point"), 3)
        .cell(result.mean(sc, 0, "npar_fleet"), 3)
        .cell(result.mean(sc, 0, "npar_mc"), 3)
        .cell(result.mean(sc, 0, "dcost_point"), 3)
        .cell(result.mean(sc, 0, "dcost_fleet"), 3);
  }
  table.print(std::cout);

  std::cout << "\n-- Δcost minima under each accounting\n";
  report::Table optima({"accounting", "t0 (s)", "t_inf (s)", "E_J (s)",
                        "dcost point", "dcost fleet"});
  for (std::size_t sc = 0; sc < min_axes.scenario_labels.size(); ++sc) {
    optima.row()
        .cell(min_axes.scenario_labels[sc])
        .cell(minima.mean(sc, 0, "t0"), 0)
        .cell(minima.mean(sc, 0, "t_inf"), 0)
        .cell(minima.mean(sc, 0, "ej"), 1)
        .cell(minima.mean(sc, 0, "dcost_point"), 3)
        .cell(minima.mean(sc, 0, "dcost_fleet"), 3);
  }
  optima.print(std::cout);

  std::cout
      << "\nfinding: the fleet N∥ tracks the MC referee while the paper's "
         "point N∥ sits below both; Δcost < 1 configurations under the "
         "paper's accounting can bill > 1 in job-seconds. The fleet-optimal "
         "configuration trades a slightly higher E_J for honest savings "
         "(or reveals none exist on that week). See EXPERIMENTS.md.\n";
  return 0;
}
