#include "exp/experiment.hpp"

#include <memory>
#include <stdexcept>

namespace gridsub::exp {

void ExperimentSpec::validate() const {
  if (scenarios.empty()) {
    throw std::invalid_argument("ExperimentSpec: no scenarios");
  }
  if (strategies.empty()) {
    throw std::invalid_argument("ExperimentSpec: no strategies");
  }
  if (replications == 0) {
    throw std::invalid_argument("ExperimentSpec: zero replications");
  }
  if (clients.clients_per_cell == 0 || clients.tasks_per_client == 0) {
    throw std::invalid_argument("ExperimentSpec: no clients or tasks");
  }
  if (clients.warm_up < 0.0) {
    throw std::invalid_argument("ExperimentSpec: negative warm_up");
  }
  for (const auto& s : scenarios) {
    if (!s.workload && !(clients.horizon > 0.0)) {
      throw std::invalid_argument(
          "ExperimentSpec: scenario '" + s.label +
          "' has no workload, so clients.horizon must be > 0");
    }
    if (s.workload && s.workload->empty()) {
      throw std::invalid_argument("ExperimentSpec: scenario '" + s.label +
                                  "' has an empty workload");
    }
  }
}

CampaignAxes ExperimentSpec::axes() const {
  CampaignAxes a;
  a.name = name;
  a.scenario_labels.reserve(scenarios.size());
  for (const auto& s : scenarios) a.scenario_labels.push_back(s.label);
  a.strategy_labels.reserve(strategies.size());
  for (const auto& s : strategies) a.strategy_labels.push_back(s.label);
  a.replications = replications;
  a.root_seed = root_seed;
  return a;
}

CellMetrics run_strategy_cell(const ScenarioCase& scenario,
                              const sim::StrategySpec& strategy,
                              const ClientConfig& clients,
                              std::uint64_t seed) {
  sim::GridConfig config = scenario.grid;
  config.seed = seed;
  sim::GridSimulation grid(config);
  if (scenario.workload) {
    grid.attach_replay(*scenario.workload, scenario.replay);
  }
  grid.warm_up(clients.warm_up);

  const sim::GridMetrics before = grid.metrics();
  std::vector<std::unique_ptr<sim::StrategyClient>> cs;
  cs.reserve(clients.clients_per_cell);
  for (std::size_t c = 0; c < clients.clients_per_cell; ++c) {
    cs.push_back(std::make_unique<sim::StrategyClient>(
        grid, strategy, clients.tasks_per_client, clients.task_runtime));
  }
  for (auto& c : cs) c->start();

  // With a replayed workload the horizon is absolute (the replay starts at
  // sim time 0); without one it counts from the end of warm-up.
  const double t_end =
      scenario.workload
          ? (clients.horizon > 0.0 ? clients.horizon
                                   : scenario.workload->duration())
          : grid.simulator().now() + clients.horizon;
  grid.simulator().run_until(t_end);

  double latency_sum = 0.0, subs_sum = 0.0;
  std::size_t done = 0;
  for (const auto& c : cs) {
    const auto n = static_cast<double>(c->outcomes().size());
    latency_sum += c->mean_latency() * n;
    subs_sum += c->mean_submissions() * n;
    done += c->outcomes().size();
  }
  const double denom = done > 0 ? static_cast<double>(done) : 1.0;
  const sim::GridMetrics& after = grid.metrics();
  const auto submitted = after.jobs_submitted - before.jobs_submitted;
  const auto canceled = after.jobs_canceled - before.jobs_canceled;
  const auto started = after.jobs_started - before.jobs_started;
  const double queue_wait = after.total_queue_wait - before.total_queue_wait;

  return CellMetrics{
      {"tasks_done", static_cast<double>(done)},
      {"mean_J", latency_sum / denom},
      {"mean_subs", subs_sum / denom},
      {"jobs_submitted", static_cast<double>(submitted)},
      {"jobs_canceled", static_cast<double>(canceled)},
      {"cancel_frac",
       submitted > 0 ? static_cast<double>(canceled) /
                           static_cast<double>(submitted)
                     : 0.0},
      {"mean_queue_wait",
       started > 0 ? queue_wait / static_cast<double>(started) : 0.0},
  };
}

CampaignResult run_experiment(const ExperimentSpec& spec,
                              const CampaignOptions& options) {
  spec.validate();
  return CampaignRunner(options).run(
      spec.axes(), [&spec](const CellContext& ctx) {
        return run_strategy_cell(spec.scenarios[ctx.scenario],
                                 spec.strategies[ctx.strategy].spec,
                                 spec.clients, ctx.seed);
      });
}

}  // namespace gridsub::exp
