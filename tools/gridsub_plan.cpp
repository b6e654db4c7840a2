// gridsub-plan: tune a submission strategy from a probe trace — the
// client-side planner of the paper's §7, as a command-line tool.
//
//   gridsub-plan --in week51.csv                    # min-cost objective
//   gridsub-plan --in week51.csv --objective latency --budget 4
//   gridsub-plan --in week51.csv --stability        # Table-5-style ±5 s

// gridsub-lint: allow-file(printf-float) CLI console diagnostics only

#include <cstdio>
#include <exception>
#include <string>

#include "cli.hpp"
#include "core/planner.hpp"
#include "core/uncertainty.hpp"
#include "model/discretized.hpp"
#include "traces/trace_io.hpp"

int main(int argc, char** argv) try {
  using namespace gridsub;
  tools::Cli cli(
      "gridsub-plan", "recommend a submission strategy from a probe trace",
      {
          {"--in", "input trace CSV (required)"},
          {"--objective", "cost (default) or latency"},
          {"--budget", "max mean parallel jobs for --objective latency "
                       "(default 5)"},
          {"--max-b", "largest multiple-submission size tried, 1 to 1000 "
                      "(default 10)"},
          {"--step", "model grid step in seconds (default 1)"},
          {"--stability", "probe the optimum's +-5 s stability (Table 5)"},
      },
      {"--stability"});
  cli.parse(argc, argv);
  const auto in = cli.get("--in");
  if (!in) {
    std::fprintf(stderr, "need --in FILE (see --help)\n");
    return 2;
  }

  const auto trace = traces::read_csv_file(*in);
  const auto model = model::DiscretizedLatencyModel::from_trace(
      trace, cli.number_or("--step", 1.0));
  const core::StrategyPlanner planner(model);

  core::PlannerOptions options;
  const std::string objective = cli.get_or("--objective", "cost");
  if (objective == "latency") {
    options.objective = core::PlannerOptions::Objective::kMinLatency;
  } else if (objective == "cost") {
    options.objective = core::PlannerOptions::Objective::kMinCost;
  } else {
    std::fprintf(stderr, "--objective must be 'cost' or 'latency'\n");
    return 2;
  }
  options.max_parallel_jobs = cli.number_or("--budget", 5.0);
  options.max_b = static_cast<int>(cli.count_or("--max-b", 10, 1, 1000));

  const auto rec = planner.recommend(options);
  std::printf("trace: %s (%zu probes)\n", trace.name().c_str(),
              trace.size());
  std::printf("recommendation: %s\n", rec.rationale.c_str());

  std::printf("\nall candidates scored:\n");
  std::printf("  %-24s %6s %6s %6s %10s %8s %8s\n", "strategy", "b", "t0",
              "t_inf", "E_J (s)", "N_par", "dcost");
  for (const auto& c : rec.candidates) {
    std::printf("  %-24s %6d %6.0f %6.0f %10.1f %8.2f %8.3f\n",
                std::string(core::to_string(c.kind)).c_str(), c.b, c.t0,
                c.t_inf, c.expectation, c.n_parallel, c.delta_cost);
  }

  // Finite-sample honesty: the DKW band of the chosen strategy's E_J.
  const core::UncertaintyAnalysis ua(model, trace.size());
  core::ExpectationBand band;
  switch (rec.choice.kind) {
    case core::StrategyKind::kSingleResubmission:  // b == 1
    case core::StrategyKind::kMultipleSubmission:
      band = ua.multiple(rec.choice.b, rec.choice.t_inf);
      break;
    case core::StrategyKind::kDelayedResubmission:
      band = ua.delayed(rec.choice.t0, rec.choice.t_inf);
      break;
  }
  std::printf("\n95%% DKW band on E_J from %zu probes: [%.0f, %.0f] s "
              "(eps = %.3f)\n",
              trace.size(), band.lower, band.upper, ua.epsilon());

  if (cli.flag("--stability") &&
      rec.choice.kind == core::StrategyKind::kDelayedResubmission) {
    const auto rep = planner.cost_model().stability(rec.choice.t0,
                                                    rec.choice.t_inf);
    std::printf("\nstability of the delayed optimum under +-5 s (Table 5):\n"
                "  base dcost %.3f, max %.3f (relative difference "
                "%+.1f%%)\n",
                rep.base_delta_cost, rep.max_delta_cost,
                100.0 * rep.max_rel_diff);
  }
  return 0;
} catch (const std::exception& e) {
  // A library error (unreadable input, bad parameter) ends in one line.
  std::fprintf(stderr, "gridsub-plan: %s\n", e.what());
  return 1;
}
