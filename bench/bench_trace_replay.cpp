// Trace-replay experiment: the three strategy families under realistic
// non-stationary load.
//
// The paper evaluates strategies against per-week latency distributions
// and concludes (§7) that parameters tuned on one week stay near-optimal
// later. That only holds if performance is robust to *non-stationary*
// load, which a stationary Poisson background cannot probe. Each strategy
// family runs on the DES grid while a recorded workload is replayed as the
// background traffic: a diurnal/weekend cycle, a burst week, and an
// outage-backlog week, all normalized to the same time-averaged rate as
// the stationary control so only the load *shape* differs.
//
// The (scenario × strategy × replication) sweep runs on the campaign
// engine (src/exp): cells are sharded across the thread pool with
// per-cell seeds split from the root seed, so the output is
// bit-reproducible at any thread count.

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "report/table.hpp"
#include "traces/scenarios.hpp"

namespace {

using namespace gridsub;

std::vector<exp::StrategyCase> strategy_cases() {
  std::vector<exp::StrategyCase> cases;
  {
    sim::StrategySpec s;
    s.kind = core::StrategyKind::kSingleResubmission;
    s.t_inf = 1500.0;
    cases.push_back({"single(t_inf=1500)", s});
  }
  {
    sim::StrategySpec s;
    s.kind = core::StrategyKind::kMultipleSubmission;
    s.b = 3;
    s.t_inf = 1500.0;
    cases.push_back({"multiple(b=3,t_inf=1500)", s});
  }
  {
    sim::StrategySpec s;
    s.kind = core::StrategyKind::kDelayedResubmission;
    s.t0 = 900.0;
    s.t_inf = 1500.0;
    cases.push_back({"delayed(t0=900,t_inf=1500)", s});
  }
  return cases;
}

}  // namespace

int main() {
  bench::print_header(
      "trace_replay",
      "paper §7 robustness: strategies under non-stationary replayed load",
      "DES grid, one week per scenario, equal time-averaged rate, "
      "4 replications per cell via the campaign engine");

  traces::ScenarioConfig scen;
  // ~74% average utilization of the egee_like grid (896 slots, 2200 s mean
  // runtime): the stationary control is stable, so any degradation under
  // the other shapes is attributable to non-stationarity, not saturation.
  scen.base_rate = 0.30;
  scen.seed = 20090611;

  exp::ExperimentSpec spec;
  spec.name = "trace_replay";
  spec.strategies = strategy_cases();
  spec.replications = 4;
  spec.root_seed = 20090611;
  spec.clients.warm_up = 6.0 * 3600.0;  // let day 0's morning fill queues

  report::Table shape({"scenario", "jobs", "mean rate (1/s)",
                       "peak hourly rate", "burstiness"});
  for (const auto& name : traces::replay_scenario_names()) {
    spec.scenarios.push_back(bench::replay_scenario(name, scen));
    const auto stats = spec.scenarios.back().workload->stats();
    shape.row()
        .cell(name)
        .cell(static_cast<long long>(stats.jobs))
        .cell(stats.mean_rate, 4)
        .cell(stats.peak_hourly_rate, 4)
        .cell(stats.burstiness, 2);
  }
  std::cout << "replayed workload shapes (same average load, different "
               "distribution over the week):\n";
  shape.print(std::cout);
  std::cout << "\n";

  const auto result = bench::run_campaign_streamed(spec);
  if (!result) return 0;  // shard mode: cells are on disk

  for (std::size_t s = 0; s < spec.strategies.size(); ++s) {
    report::Table table({"scenario", "tasks done", "mean J (s)", "+/-",
                         "mean subs/task", "J vs stationary"});
    const double base_j = result->mean(0, s, "mean_J");
    for (std::size_t sc = 0; sc < spec.scenarios.size(); ++sc) {
      table.row()
          .cell(spec.scenarios[sc].label)
          .cell(static_cast<long long>(result->mean(sc, s, "tasks_done")))
          .cell(result->mean(sc, s, "mean_J"), 1)
          .cell(result->sem(sc, s, "mean_J"), 1)
          .cell(result->mean(sc, s, "mean_subs"), 2)
          .cell(base_j > 0.0 ? result->mean(sc, s, "mean_J") / base_j : 0.0,
                3);
    }
    std::cout << "strategy " << spec.strategies[s].label << ":\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "takeaway: with the weekly job mass held fixed, diurnal "
               "peaks, bursts, and outage backlogs inflate E_J relative to "
               "the stationary control — the regime the paper's cross-week "
               "tuning claim must survive. Timeout-based resubmission "
               "degrades most when load concentrates into peaks (burst and "
               "diurnal weeks), while the outage backlog costs every "
               "strategy least; multiple submission buys back latency at "
               "the cost of extra broker traffic, as in the stationary "
               "experiments.\n";
  return 0;
}
