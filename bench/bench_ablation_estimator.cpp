// Ablation: latency-model estimator choice. The paper uses the raw ECDF;
// alternatives are a parametric fit (log-normal MLE on the completed
// probes + measured fault ratio) or a Weibull fit. How much do the
// resulting optima and Δcost decisions differ?
//
// One campaign cell per estimator: the fitted models are built once up
// front and shared read-only, each cell tunes all three strategies on its
// estimator, and the decision table falls out of the campaign result.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cost.hpp"
#include "exp/campaign.hpp"
#include "model/empirical_latency.hpp"
#include "model/parametric_latency.hpp"
#include "report/table.hpp"
#include "stats/fit.hpp"
#include "traces/datasets.hpp"

int main() {
  using namespace gridsub;
  bench::print_header("ablation_estimator",
                      "ECDF vs parametric latency estimators",
                      "dataset 2006-IX; decisions compared at the end");

  const auto trace = traces::make_trace_by_name("2006-IX");
  const auto latencies = trace.completed_latencies();
  const double rho = trace.stats().outlier_ratio;

  // Candidate models, shared read-only by the cells.
  std::vector<std::string> labels;
  std::vector<model::DiscretizedLatencyModel> models;
  labels.emplace_back("ecdf (paper)");
  models.push_back(model::DiscretizedLatencyModel::from_trace(trace, 1.0));
  const auto ln_fit = stats::fit_lognormal_mle(latencies);
  const model::ParametricLatencyModel ln_model(
      std::make_unique<stats::LogNormal>(ln_fit), rho, trace.timeout());
  labels.emplace_back("lognormal MLE");
  models.emplace_back(ln_model, 1.0);
  const auto wb_fit = stats::fit_weibull_mle(latencies);
  const model::ParametricLatencyModel wb_model(
      std::make_unique<stats::Weibull>(wb_fit), rho, trace.timeout());
  labels.emplace_back("weibull MLE");
  models.emplace_back(wb_model, 1.0);

  std::cout << "fits: " << ln_fit.name() << " (KS "
            << stats::ks_statistic(latencies, ln_fit) << "), "
            << wb_fit.name() << " (KS "
            << stats::ks_statistic(latencies, wb_fit) << ")\n\n";

  exp::CampaignAxes axes;
  axes.name = "ablation_estimator";
  axes.scenario_axis = "estimator";
  axes.strategy_axis = "stage";
  axes.scenario_labels = labels;
  axes.strategy_labels = {"tune"};
  axes.root_seed = 20090611;

  const auto result = bench::run_campaign(
      axes, [&models](const exp::CellContext& ctx) {
        const core::CostModel cost(models[ctx.scenario]);
        const auto base = cost.baseline();
        const auto dopt = cost.delayed().optimize();
        const auto copt = cost.optimize_delayed_cost();
        return exp::CellMetrics{{"t_inf_single", base.t_inf},
                                {"ej_single", base.metrics.expectation},
                                {"t0", dopt.t0},
                                {"t_inf", dopt.t_inf},
                                {"ej_delayed", dopt.metrics.expectation},
                                {"min_dcost", copt.delta_cost}};
      });

  report::Table table({"estimator", "opt t_inf (single)", "E_J single",
                       "opt t0/t_inf (delayed)", "E_J delayed",
                       "min d_cost"});
  for (std::size_t sc = 0; sc < labels.size(); ++sc) {
    table.row()
        .cell(labels[sc])
        .cell(result.mean(sc, 0, "t_inf_single"), 0)
        .cell(result.mean(sc, 0, "ej_single"), 1)
        .cell(std::to_string(
                  static_cast<int>(result.mean(sc, 0, "t0"))) +
              "/" +
              std::to_string(static_cast<int>(result.mean(sc, 0, "t_inf"))))
        .cell(result.mean(sc, 0, "ej_delayed"), 1)
        .cell(result.mean(sc, 0, "min_dcost"), 3);
  }
  table.print(std::cout);
  std::cout << "\ntakeaway: the decision structure (delayed helps, "
               "d_cost < 1 attainable) is estimator-robust, but absolute "
               "optima shift when the fitted family misses the tail — the "
               "paper's choice of the raw ECDF is the safe default.\n";
  return 0;
}
