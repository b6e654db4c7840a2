#pragma once

// Experiment-campaign engine: the (scenario × strategy × replication) grid.
//
// Every simulation study in this repository reduces to the same shape: a
// grid of independent cells, each deterministic in its own seed, whose
// metrics are aggregated per (scenario, strategy) group. This engine owns
// that shape once — benches declare axes and a cell evaluator, the runner
// evaluates every cell on the par::ThreadPool, and the result folds the
// cells into per-group aggregates and renders itself as JSON.
//
// Determinism contract (the engine's one load-bearing guarantee):
//
//   seeding   — every cell's seed is a chained SplitMix64 hash of
//               (root_seed, scenario, strategy, replication) and of
//               nothing else: not thread count, not execution order;
//   placement — results land in a pre-sized slot indexed by the cell's
//               flat index (row-major scenario → strategy → replication);
//   fold order — aggregation folds each (scenario, strategy) group's
//               replications in ascending flat-index order, so floating-
//               point sums are schedule-independent.
//
// Together these make a campaign's output (JSON bytes included) identical
// at 1, 2, or N worker threads. CampaignRunner::run must be called from
// outside the pool it executes on (cells may not recursively launch
// campaigns on the same pool).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace gridsub::exp {

/// Position of one cell in the campaign grid, plus its derived seed.
struct CellContext {
  std::size_t flat = 0;         ///< index in row-major (scenario, strategy,
                                ///< replication) order
  std::size_t scenario = 0;     ///< index on the scenario axis
  std::size_t strategy = 0;     ///< index on the strategy axis
  std::size_t replication = 0;  ///< replication number within the group
  std::uint64_t seed = 0;       ///< deterministic per-cell seed
};

/// Ordered (name, value) metric list produced by one cell. All cells of a
/// (scenario, strategy) group must emit the same names in the same order.
using CellMetrics = std::vector<std::pair<std::string, double>>;

/// Evaluates one cell. Called concurrently from pool workers: it must not
/// touch shared mutable state (everything it needs travels in the context
/// seed and whatever immutable state the closure captures).
using CellEvaluator = std::function<CellMetrics(const CellContext&)>;

/// The abstract campaign grid: named axes, replication count, seed policy.
/// Sim-level specs (exp/experiment.hpp) compile down to this.
struct CampaignAxes {
  std::string name = "campaign";
  std::string scenario_axis = "scenario";  ///< display name of axis 1
  std::string strategy_axis = "strategy";  ///< display name of axis 2
  std::vector<std::string> scenario_labels;
  std::vector<std::string> strategy_labels;
  std::size_t replications = 1;
  std::uint64_t root_seed = 20090611;

  [[nodiscard]] std::size_t cell_count() const {
    return scenario_labels.size() * strategy_labels.size() * replications;
  }

  /// SplitMix64 hash of (root_seed, scenario, strategy, replication):
  /// depends on indices only, never on execution order or thread count.
  [[nodiscard]] std::uint64_t cell_seed(std::size_t scenario,
                                        std::size_t strategy,
                                        std::size_t replication) const;

  /// Decodes a flat index into a full context (with seed).
  [[nodiscard]] CellContext cell(std::size_t flat) const;

  /// Throws std::invalid_argument on empty axes or zero replications.
  void validate() const;
};

/// One evaluated cell: its grid position and the metrics it produced.
struct CellResult {
  CellContext context;
  CellMetrics metrics;
};

/// A finished campaign: per-cell metrics in flat order plus per-group
/// aggregates, renderable as deterministic JSON.
class CampaignResult {
 public:
  /// Folds `cells` (one per flat index, in flat order) into per-group
  /// aggregates. Throws std::logic_error when the replications of one
  /// group emitted different metric names.
  CampaignResult(CampaignAxes axes, std::vector<CellResult> cells);

  [[nodiscard]] const std::vector<CellResult>& cells() const {
    return cells_;
  }

  /// Aggregated mean / stderr / largest value of a named metric over one
  /// (scenario, strategy) group; throws std::out_of_range for an unknown
  /// group or metric name.
  [[nodiscard]] double mean(std::size_t scenario, std::size_t strategy,
                            const std::string& metric) const;
  [[nodiscard]] double sem(std::size_t scenario, std::size_t strategy,
                           const std::string& metric) const;
  [[nodiscard]] double max(std::size_t scenario, std::size_t strategy,
                           const std::string& metric) const;

  /// Deterministic JSON: stable key order, shortest round-trip doubles.
  /// Identical campaigns produce byte-identical output at any thread count.
  void write_json(std::ostream& os) const;

 private:
  /// One metric of one (scenario, strategy) group, folded over its
  /// replications.
  struct Aggregate {
    std::string name;
    double mean = 0.0;
    double sem = 0.0;  ///< sample stderr of the mean (0 for 1 replication)
    double max = 0.0;  ///< largest per-cell value across replications
  };

  [[nodiscard]] const Aggregate& aggregate(std::size_t scenario,
                                           std::size_t strategy,
                                           const std::string& metric) const;

  CampaignAxes axes_;
  std::vector<CellResult> cells_;
  /// One entry per group, at scenario * strategies + strategy; each holds
  /// the group's metrics in cell metric order.
  std::vector<std::vector<Aggregate>> groups_;
};

/// Progress snapshot delivered to CampaignOptions::on_progress.
struct CampaignProgress {
  std::size_t completed = 0;  ///< cells evaluated so far (monotone)
  std::size_t total = 0;      ///< cells in the campaign
};

struct CampaignOptions {
  /// Pool to evaluate cells on; nullptr uses par::ThreadPool::shared().
  par::ThreadPool* pool = nullptr;
  /// Progress callback, invoked once per successfully evaluated cell,
  /// under the runner's progress lock, so snapshots arrive one at a time
  /// with `completed` strictly increasing. Completion order is
  /// nondeterministic — do not derive results from it; the callback must
  /// not throw (an exception counts as its cell's failure).
  std::function<void(const CampaignProgress&)> on_progress;
};

/// perfbench adapter (exp/fold.hpp).
class FoldSink;

/// Executes campaign cells concurrently and deterministically.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Evaluates every cell of `axes` through `evaluate` on the pool. Workers
  /// claim flat indices in ascending order from one shared cursor (cell
  /// costs vary, so the claim is dynamic) and write each result into its
  /// pre-sized slot. Every cell settles, even after a failure; the
  /// exception of the lowest failing flat index is then rethrown.
  [[nodiscard]] CampaignResult run(const CampaignAxes& axes,
                                   const CellEvaluator& evaluate) const;

  /// run() into a FoldSink; defined in exp/fold.hpp.
  void run_with_sink(const CampaignAxes& axes, const CellEvaluator& evaluate,
                     FoldSink& sink) const;

 private:
  CampaignOptions options_;
};

}  // namespace gridsub::exp
