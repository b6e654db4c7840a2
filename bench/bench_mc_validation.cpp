// Validation table (beyond the paper): analytic E_J/sigma_J/N∥ vs Monte
// Carlo execution of the client protocols, across all three strategies on
// 2006-IX. Also arbitrates the printed eq. 5 against the survival form.
//
// Both tables are campaigns on the experiment engine (one cell per
// parameter configuration). Cells run on a dedicated single-thread pool:
// the MC engine inside each cell spreads its replications across the
// *shared* pool, and nesting campaign cells on that same pool would stall
// its workers.

#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "core/single_resubmission.hpp"
#include "exp/campaign.hpp"
#include "mc/mc_engine.hpp"
#include "report/table.hpp"

namespace {

using namespace gridsub;

struct Config {
  enum class Family { kSingle, kMultiple, kDelayed };
  std::string label;
  Family family = Family::kSingle;
  double t0 = 0.0;
  double t_inf = 0.0;
  int b = 1;
};

std::vector<Config> validation_configs() {
  std::vector<Config> configs;
  for (const double t : {300.0, 600.0, 1200.0}) {
    configs.push_back({"single t_inf=" + std::to_string(static_cast<int>(t)),
                       Config::Family::kSingle, 0.0, t, 1});
  }
  for (const int b : {2, 5, 10}) {
    configs.push_back({"multiple b=" + std::to_string(b),
                       Config::Family::kMultiple, 0.0, 0.0, b});
  }
  for (const auto& [t0, ti] :
       {std::pair{250.0, 450.0}, {400.0, 640.0}, {550.0, 880.0}}) {
    configs.push_back({"delayed t0=" + std::to_string(static_cast<int>(t0)) +
                           ",t_inf=" + std::to_string(static_cast<int>(ti)),
                       Config::Family::kDelayed, t0, ti, 1});
  }
  return configs;
}

}  // namespace

int main() {
  using namespace gridsub;
  const std::size_t mc_reps = bench::quick_mode() ? 50000 : 500000;
  bench::print_header("mc_validation",
                      "eqs. 1-5 cross-checked by Monte Carlo",
                      std::to_string(mc_reps) +
                          " replications per row, deterministic seeds, "
                          "campaign engine");

  const auto m = bench::load_model("2006-IX");
  const core::SingleResubmission single(m);
  const core::DelayedResubmission delayed(m);
  const std::vector<Config> configs = validation_configs();

  exp::CampaignAxes axes;
  // The replication count is an evaluator parameter, so it joins the
  // campaign name: the quick and full runs write different campaign JSON
  // files.
  axes.name = "mc_validation_" + std::to_string(mc_reps);
  axes.scenario_axis = "config";
  axes.strategy_axis = "check";
  for (const auto& c : configs) axes.scenario_labels.push_back(c.label);
  axes.strategy_labels = {"model-vs-mc"};
  axes.root_seed = 20090611;

  par::ThreadPool cell_pool(1);
  exp::CampaignOptions options;
  options.pool = &cell_pool;

  const auto evaluate = [&](const exp::CellContext& ctx) -> exp::CellMetrics {
    const Config& c = configs[ctx.scenario];
    mc::McOptions mo;
    mo.replications = mc_reps;
    mo.seed = ctx.seed;
    switch (c.family) {
      case Config::Family::kSingle: {
        const auto mc = mc::simulate_single(m, c.t_inf, mo);
        return {{"ej_model", single.expectation(c.t_inf)},
                {"ej_mc", mc.mean_latency},
                {"sigma_model", single.std_deviation(c.t_inf)},
                {"sigma_mc", mc.std_latency},
                {"npar_model", 1.0},
                {"npar_mc", mc.aggregate_parallel}};
      }
      case Config::Family::kMultiple: {
        const core::MultipleSubmission multi(m, c.b);
        const auto opt = multi.optimize();
        const auto mc = mc::simulate_multiple(m, c.b, opt.t_inf, mo);
        return {{"ej_model", opt.metrics.expectation},
                {"ej_mc", mc.mean_latency},
                {"sigma_model", opt.metrics.std_deviation},
                {"sigma_mc", mc.std_latency},
                {"npar_model", static_cast<double>(c.b)},
                {"npar_mc", mc.aggregate_parallel}};
      }
      default: {
        const auto mc = mc::simulate_delayed(m, c.t0, c.t_inf, mo);
        return {{"ej_model", delayed.expectation(c.t0, c.t_inf)},
                {"ej_mc", mc.mean_latency},
                {"sigma_model", delayed.std_deviation(c.t0, c.t_inf)},
                {"sigma_mc", mc.std_latency},
                {"npar_model", delayed.expected_parallel_jobs(c.t0, c.t_inf)},
                {"npar_mc", mc.mean_parallel_ratio}};
      }
    }
  };

  // ---- eq. 5 arbitration: survival form vs the printed eq. 5 vs MC ----
  const std::vector<std::pair<double, double>> arb_pairs = {
      {300.0, 580.0}, {400.0, 700.0}, {250.0, 480.0}};
  exp::CampaignAxes arb_axes;
  arb_axes.name = "mc_eq5_arbitration_" + std::to_string(mc_reps);
  arb_axes.scenario_axis = "window";
  arb_axes.strategy_axis = "check";
  for (const auto& [t0, ti] : arb_pairs) {
    arb_axes.scenario_labels.push_back(
        "t0=" + std::to_string(static_cast<int>(t0)) +
        ",t_inf=" + std::to_string(static_cast<int>(ti)));
  }
  arb_axes.strategy_labels = {"model-vs-mc"};
  arb_axes.root_seed = 20090612;

  const auto arb_evaluate =
      [&](const exp::CellContext& ctx) -> exp::CellMetrics {
    const auto [t0, ti] = arb_pairs[ctx.scenario];
    mc::McOptions mo;
    mo.replications = mc_reps;
    mo.seed = ctx.seed;
    const auto mc = mc::simulate_delayed(m, t0, ti, mo);
    return {{"survival", delayed.expectation(t0, ti)},
            {"eq5", delayed.expectation_paper_eq5(t0, ti)},
            {"mc", mc.mean_latency}};
  };

  const auto result = bench::run_campaign(axes, evaluate, options);
  const auto arb = bench::run_campaign(arb_axes, arb_evaluate, options);

  report::Table table({"strategy", "params", "E_J model", "E_J mc",
                       "sigma model", "sigma mc", "N_par model", "N_par mc",
                       "rel.err E_J"});
  for (std::size_t sc = 0; sc < configs.size(); ++sc) {
    const std::string& label = configs[sc].label;
    const std::size_t split = label.find(' ');
    const double ej = result.mean(sc, 0, "ej_model");
    const double ej_mc = result.mean(sc, 0, "ej_mc");
    table.row()
        .cell(label.substr(0, split))
        .cell(label.substr(split + 1))
        .cell(ej, 1)
        .cell(ej_mc, 1)
        .cell(result.mean(sc, 0, "sigma_model"), 1)
        .cell(result.mean(sc, 0, "sigma_mc"), 1)
        .cell(result.mean(sc, 0, "npar_model"), 3)
        .cell(result.mean(sc, 0, "npar_mc"), 3)
        .percent((ej_mc - ej) / ej, 2);
  }
  table.print(std::cout);

  std::cout << "\neq. 5 arbitration (delayed strategy, overlap window with "
               "probability mass):\n";
  report::Table arb_table({"t0", "t_inf", "survival form", "paper eq.5",
                           "mc"});
  for (std::size_t sc = 0; sc < arb_pairs.size(); ++sc) {
    arb_table.row()
        .cell(arb_pairs[sc].first, 0)
        .cell(arb_pairs[sc].second, 0)
        .cell(arb.mean(sc, 0, "survival"), 1)
        .cell(arb.mean(sc, 0, "eq5"), 1)
        .cell(arb.mean(sc, 0, "mc"), 1);
  }
  arb_table.print(std::cout);
  std::cout << "\nMonte Carlo sides with the survival form; the printed "
               "eq. 5 over-estimates E_J once F~(t_inf - t0) > 0 (see "
               "DESIGN.md, 'A note on eq. 5').\n";
  return 0;
}
