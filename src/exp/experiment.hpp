#pragma once

// Declarative simulation experiments on the campaign engine.
//
// An ExperimentSpec names the two campaign axes concretely: scenarios
// (a grid configuration plus an optional workload to replay) and
// strategies (a sim::StrategySpec each), with shared client knobs and a
// replication count. The spec compiles to CampaignAxes + a CellEvaluator;
// run_strategy_cell() is the one place the repository builds a grid,
// attaches a replay, warms up, drives strategy clients and snapshots
// metrics — benches that need per-cell strategy resolution (e.g. the
// cross-week study, whose parameters depend on the scenario) call it
// directly from their own evaluator instead of re-rolling the loop.
//
// Concurrency: cells construct their own GridSimulation from a value
// GridConfig whose seed is the cell seed, so concurrent cells share no
// mutable state (see sim/grid.hpp's thread-safety note). ScenarioCase
// workloads are shared read-only across cells via shared_ptr.
//
// Determinism: a spec inherits the campaign engine's full contract
// (campaign.hpp) — the cell seed is derived from (root_seed, scenario,
// strategy, replication) alone, and run_strategy_cell consumes *only*
// that seed as entropy. A spec's result is therefore byte-identical at
// any thread count.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "sim/grid.hpp"
#include "sim/replay_load.hpp"
#include "sim/strategy_client.hpp"
#include "traces/workload.hpp"

namespace gridsub::exp {

/// One point on the scenario axis: the infrastructure and its load.
struct ScenarioCase {
  std::string label;
  /// Base grid; the cell seed overwrites `grid.seed` per cell.
  sim::GridConfig grid = sim::GridConfig::egee_like();
  /// Workload replayed as (part of) the background traffic; null keeps
  /// only the grid's Poisson BackgroundLoad. Shared read-only by cells.
  std::shared_ptr<const traces::Workload> workload;
  sim::ReplayLoadConfig replay;
};

/// One point on the strategy axis.
struct StrategyCase {
  std::string label;
  sim::StrategySpec spec;
};

/// Client-side knobs shared by every cell of a spec.
struct ClientConfig {
  std::size_t clients_per_cell = 1;  ///< concurrent StrategyClients
  /// Tasks per client; oversize it (default) to keep clients active to the
  /// horizon so every load regime of the scenario is sampled.
  std::size_t tasks_per_client = 100000;
  double task_runtime = 1.0;
  double warm_up = 21600.0;  ///< seconds of load-only traffic before clients
  /// Measurement end. With a workload: absolute sim time, 0 meaning the
  /// workload's duration. Without a workload: seconds after warm-up
  /// (required > 0).
  double horizon = 0.0;
};

/// A full declarative experiment: axes × knobs × seed policy.
struct ExperimentSpec {
  std::string name = "experiment";
  std::vector<ScenarioCase> scenarios;
  std::vector<StrategyCase> strategies;
  ClientConfig clients;
  std::size_t replications = 1;
  std::uint64_t root_seed = 20090611;

  /// Throws std::invalid_argument on empty axes, zero replications, or a
  /// missing horizon for workload-less scenarios.
  void validate() const;

  /// The abstract grid this spec expands to (labels in declaration order).
  [[nodiscard]] CampaignAxes axes() const;
};

/// Executes one simulation cell: builds the grid seeded with `seed`,
/// attaches the scenario's replay (if any), warms up, runs the clients and
/// returns the standard metric set — tasks_done, mean_J, mean_subs,
/// jobs_submitted, jobs_canceled, cancel_frac, mean_queue_wait (grid
/// counters as deltas over the measurement window).
[[nodiscard]] CellMetrics run_strategy_cell(const ScenarioCase& scenario,
                                            const sim::StrategySpec& strategy,
                                            const ClientConfig& clients,
                                            std::uint64_t seed);

/// Runs the spec on the campaign engine: each cell resolves its scenario
/// and strategy from the spec and calls run_strategy_cell with the cell
/// seed (spec need only live for the call).
[[nodiscard]] CampaignResult run_experiment(const ExperimentSpec& spec,
                                            const CampaignOptions& options = {});

}  // namespace gridsub::exp
