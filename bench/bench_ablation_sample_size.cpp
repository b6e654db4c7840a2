// Ablation: how many probes does strategy tuning actually need?
//
// §7.2 estimates (t0, t∞) from finite probe campaigns; every probe costs
// real grid time. We bootstrap subsamples of the 2006-IX trace at several
// sizes, tune on the subsample, then charge the tuned parameters against
// the full-trace oracle. The realized regret vs n sits next to the DKW
// envelope sqrt(ln(2/alpha) / 2n) for the ECDF error — the statistical
// budget a probe campaign buys.
//
// The (size × resample) sweep is a campaign: each replication is one
// bootstrap resample whose RNG stream is the cell seed, so the sweep is
// byte-reproducible at any thread count.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cost.hpp"
#include "core/multiple_submission.hpp"
#include "exp/campaign.hpp"
#include "model/discretized.hpp"
#include "report/table.hpp"
#include "stats/rng.hpp"
#include "traces/datasets.hpp"

namespace {

/// Bootstrap resample of `n` records from a trace.
gridsub::traces::Trace resample(const gridsub::traces::Trace& trace,
                                std::size_t n, gridsub::stats::Rng& rng) {
  gridsub::traces::Trace out("resample", trace.timeout());
  const auto records = trace.records();
  for (std::size_t i = 0; i < n; ++i) {
    out.add_record(records[rng.uniform_int(records.size())]);
  }
  return out;
}

}  // namespace

int main() {
  using namespace gridsub;
  const std::size_t resamples = bench::quick_mode() ? 6 : 24;
  bench::print_header(
      "ablation_sample_size",
      "probe-campaign size vs tuning quality (supports §7.2)",
      "bootstrap " + std::to_string(resamples) +
          " resamples per size from 2006-IX; regret charged on the "
          "full-trace oracle");

  const auto full_trace = traces::make_trace_by_name("2006-IX");
  const auto oracle_model =
      model::DiscretizedLatencyModel::from_trace(full_trace, 1.0);
  const core::MultipleSubmission oracle_single(oracle_model, 1);
  const core::CostModel oracle_cost(oracle_model);
  const double oracle_ej = oracle_single.optimize().metrics.expectation;
  const double oracle_dcost = oracle_cost.optimize_delayed_cost().delta_cost;

  const std::vector<std::size_t> sizes = {50, 100, 200, 400, 800, 2005};

  exp::CampaignAxes axes;
  axes.name = "ablation_sample_size";
  axes.scenario_axis = "n probes";
  axes.strategy_axis = "stage";
  for (const std::size_t n : sizes) {
    axes.scenario_labels.push_back(std::to_string(n));
  }
  axes.strategy_labels = {"bootstrap"};
  axes.replications = resamples;
  axes.root_seed = 0x5A11;

  const auto result = bench::run_campaign(
      axes, [&](const exp::CellContext& ctx) {
        stats::Rng rng(ctx.seed);
        const auto sub = resample(full_trace, sizes[ctx.scenario], rng);
        const auto m = model::DiscretizedLatencyModel::from_trace(sub, 1.0);
        // Tune on the subsample...
        const auto t_opt = core::MultipleSubmission(m, 1).optimize().t_inf;
        const auto d_opt = core::CostModel(m).optimize_delayed_cost();
        // ...charge on the oracle.
        return exp::CellMetrics{
            {"ej_regret",
             oracle_single.expectation(t_opt) / oracle_ej - 1.0},
            {"dcost_regret",
             oracle_cost.evaluate_delayed(d_opt.t0, d_opt.t_inf).delta_cost /
                     oracle_dcost -
                 1.0}};
      });

  // Max regret is the group maximum over the resamples.
  report::Table table({"n probes", "DKW eps (95%)", "E_J regret mean",
                       "E_J regret max", "dcost regret mean",
                       "dcost regret max"});
  for (std::size_t sc = 0; sc < sizes.size(); ++sc) {
    const double dkw = std::sqrt(std::log(2.0 / 0.05) /
                                 (2.0 * static_cast<double>(sizes[sc])));
    table.row()
        .cell(static_cast<long long>(sizes[sc]))
        .cell(dkw, 3)
        .percent(result.mean(sc, 0, "ej_regret"), 2)
        .percent(result.max(sc, 0, "ej_regret"), 2)
        .percent(result.mean(sc, 0, "dcost_regret"), 2)
        .percent(result.max(sc, 0, "dcost_regret"), 2);
  }
  table.print(std::cout);
  std::cout
      << "\nreading: a few hundred probes already place the tuned E_J "
         "within a couple of percent of the oracle — consistent with the "
         "paper running week-scale campaigns of ~800 probes; the Δcost "
         "optimum is the more data-hungry of the two because its surface "
         "is flat near 1.\n";
  return 0;
}
