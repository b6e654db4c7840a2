#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <ostream>
#include <stdexcept>

#include "core/thread_annotations.hpp"
#include "exp/fold.hpp"
#include "exp/json_util.hpp"
#include "stats/rng.hpp"

namespace gridsub::exp {

namespace {

// Odd multipliers keep index 0 from collapsing the hash chain; the
// constants are the SplitMix64 finalizer's own.
constexpr std::uint64_t kScenarioSalt = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kStrategySalt = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kReplicationSalt = 0x94D049BB133111EBull;

}  // namespace

std::uint64_t CampaignAxes::cell_seed(std::size_t scenario,
                                      std::size_t strategy,
                                      std::size_t replication) const {
  // Chained SplitMix64: each field is folded into the *mixed* output of
  // the previous step, so every index bit passes through a full finalizer
  // before the next field lands (not just a linear accumulation).
  std::uint64_t s = root_seed;
  s = stats::splitmix64(s) ^
      kScenarioSalt * (static_cast<std::uint64_t>(scenario) + 1);
  s = stats::splitmix64(s) ^
      kStrategySalt * (static_cast<std::uint64_t>(strategy) + 1);
  s = stats::splitmix64(s) ^
      kReplicationSalt * (static_cast<std::uint64_t>(replication) + 1);
  return stats::splitmix64(s);
}

CellContext CampaignAxes::cell(std::size_t flat) const {
  CellContext ctx;
  ctx.flat = flat;
  ctx.replication = flat % replications;
  const std::size_t group = flat / replications;
  ctx.strategy = group % strategy_labels.size();
  ctx.scenario = group / strategy_labels.size();
  ctx.seed = cell_seed(ctx.scenario, ctx.strategy, ctx.replication);
  return ctx;
}

void CampaignAxes::validate() const {
  if (scenario_labels.empty()) {
    throw std::invalid_argument("CampaignAxes: no scenario labels");
  }
  if (strategy_labels.empty()) {
    throw std::invalid_argument("CampaignAxes: no strategy labels");
  }
  if (replications == 0) {
    throw std::invalid_argument("CampaignAxes: zero replications");
  }
}

CampaignResult::CampaignResult(CampaignAxes axes,
                               std::vector<CellResult> cells)
    : axes_(std::move(axes)), cells_(std::move(cells)) {
  axes_.validate();
  if (cells_.size() != axes_.cell_count()) {
    throw std::invalid_argument("CampaignResult: " +
                                std::to_string(cells_.size()) +
                                " cells for a grid of " +
                                std::to_string(axes_.cell_count()));
  }
  // Replications of one (scenario, strategy) group are contiguous in flat
  // order, so each group folds in a fixed order whatever the schedule.
  const std::size_t reps = axes_.replications;
  groups_.resize(cells_.size() / reps);
  std::vector<MomentFold> folds;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const CellMetrics& schema = cells_[g * reps].metrics;
    folds.assign(schema.size(), MomentFold());
    for (std::size_t r = 0; r < reps; ++r) {
      const CellResult& cell = cells_[g * reps + r];
      const bool schema_matches =
          cell.metrics.size() == schema.size() &&
          std::equal(schema.begin(), schema.end(), cell.metrics.begin(),
                     [](const auto& a, const auto& b) {
                       return a.first == b.first;
                     });
      if (!schema_matches) {
        throw std::logic_error(
            "campaign '" + axes_.name + "': replications of group (" +
            axes_.scenario_labels[cell.context.scenario] + ", " +
            axes_.strategy_labels[cell.context.strategy] +
            ") emitted mismatched metric names");
      }
      for (std::size_t m = 0; m < schema.size(); ++m) {
        folds[m].add(cell.metrics[m].second);
      }
    }
    groups_[g].reserve(schema.size());
    for (std::size_t m = 0; m < schema.size(); ++m) {
      groups_[g].push_back(Aggregate{schema[m].first, folds[m].mean(),
                                     folds[m].sem(), folds[m].max()});
    }
  }
}

const CampaignResult::Aggregate& CampaignResult::aggregate(
    std::size_t scenario, std::size_t strategy,
    const std::string& metric) const {
  // Check each axis, not just the flattened index: an off-by-one on the
  // strategy axis must throw, not alias the next scenario's group.
  if (scenario >= axes_.scenario_labels.size() ||
      strategy >= axes_.strategy_labels.size()) {
    throw std::out_of_range("CampaignResult: bad cell group");
  }
  for (const Aggregate& a :
       groups_[scenario * axes_.strategy_labels.size() + strategy]) {
    if (a.name == metric) return a;
  }
  throw std::out_of_range("CampaignResult: unknown metric '" + metric + "'");
}

double CampaignResult::mean(std::size_t scenario, std::size_t strategy,
                            const std::string& metric) const {
  return aggregate(scenario, strategy, metric).mean;
}

double CampaignResult::sem(std::size_t scenario, std::size_t strategy,
                           const std::string& metric) const {
  return aggregate(scenario, strategy, metric).sem;
}

double CampaignResult::max(std::size_t scenario, std::size_t strategy,
                           const std::string& metric) const {
  return aggregate(scenario, strategy, metric).max;
}

void CampaignResult::write_json(std::ostream& os) const {
  using detail::json_escape;
  using detail::json_number;
  os << "{\n  \"schema\": \"gridsub-campaign-v1\",\n  \"name\": ";
  json_escape(os, axes_.name);
  os << ",\n  \"root_seed\": " << axes_.root_seed;
  os << ",\n  \"axes\": {";
  json_escape(os, axes_.scenario_axis);
  os << ": [";
  for (std::size_t i = 0; i < axes_.scenario_labels.size(); ++i) {
    if (i > 0) os << ", ";
    json_escape(os, axes_.scenario_labels[i]);
  }
  os << "], ";
  json_escape(os, axes_.strategy_axis);
  os << ": [";
  for (std::size_t i = 0; i < axes_.strategy_labels.size(); ++i) {
    if (i > 0) os << ", ";
    json_escape(os, axes_.strategy_labels[i]);
  }
  os << "], \"replications\": " << axes_.replications << "},\n";

  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellResult& cell = cells_[i];
    os << "    {\"scenario\": ";
    json_escape(os, axes_.scenario_labels[cell.context.scenario]);
    os << ", \"strategy\": ";
    json_escape(os, axes_.strategy_labels[cell.context.strategy]);
    os << ", \"replication\": " << cell.context.replication;
    os << ", \"seed\": " << cell.context.seed << ", \"metrics\": {";
    for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
      if (m > 0) os << ", ";
      json_escape(os, cell.metrics[m].first);
      os << ": ";
      json_number(os, cell.metrics[m].second);
    }
    os << "}}" << (i + 1 < cells_.size() ? "," : "") << "\n";
  }

  os << "  ],\n  \"aggregates\": [\n";
  const std::size_t strategies = axes_.strategy_labels.size();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    os << "    {\"scenario\": ";
    json_escape(os, axes_.scenario_labels[g / strategies]);
    os << ", \"strategy\": ";
    json_escape(os, axes_.strategy_labels[g % strategies]);
    os << ", \"replications\": " << axes_.replications << ", \"metrics\": {";
    for (std::size_t m = 0; m < groups_[g].size(); ++m) {
      if (m > 0) os << ", ";
      json_escape(os, groups_[g][m].name);
      os << ": {\"mean\": ";
      json_number(os, groups_[g][m].mean);
      os << ", \"stderr\": ";
      json_number(os, groups_[g][m].sem);
      os << "}";
    }
    os << "}}" << (g + 1 < groups_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

namespace {

/// Serializes on_progress calls so snapshots arrive one at a time, each
/// with a larger `completed` than the last.
class ProgressCounter {
 public:
  ProgressCounter(const std::function<void(const CampaignProgress&)>& report,
                  std::size_t total)
      : report_(report), total_(total) {}

  void advance() GRIDSUB_EXCLUDES(mu_) {
    if (!report_) return;
    const core::MutexLock lock(mu_);
    ++completed_;
    report_(CampaignProgress{completed_, total_});
  }

 private:
  const std::function<void(const CampaignProgress&)>& report_;
  const std::size_t total_;
  core::Mutex mu_;
  std::size_t completed_ GRIDSUB_GUARDED_BY(mu_) = 0;
};

}  // namespace

CampaignResult CampaignRunner::run(const CampaignAxes& axes,
                                   const CellEvaluator& evaluate) const {
  axes.validate();
  if (!evaluate) {
    throw std::invalid_argument("CampaignRunner::run: null evaluator");
  }
  par::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : par::ThreadPool::shared();
  const std::size_t total = axes.cell_count();

  // Each worker writes only the slots of the flat indices it claimed, so
  // the vectors need no lock; the futures' join publishes the writes.
  std::vector<CellResult> cells(total);
  std::vector<std::exception_ptr> errors(total);
  std::atomic<std::size_t> cursor{0};
  ProgressCounter progress(options_.on_progress, total);
  const auto worker = [&] {
    for (std::size_t flat = cursor.fetch_add(1, std::memory_order_relaxed);
         flat < total;
         flat = cursor.fetch_add(1, std::memory_order_relaxed)) {
      try {
        cells[flat].context = axes.cell(flat);
        cells[flat].metrics = evaluate(cells[flat].context);
        progress.advance();
      } catch (...) {
        errors[flat] = std::current_exception();
      }
    }
  };

  const std::size_t workers =
      std::min(std::max<std::size_t>(1, pool.thread_count()), total);
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    futures.push_back(pool.submit(worker));
  }
  for (auto& f : futures) f.get();  // workers keep every cell's error

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return CampaignResult(axes, std::move(cells));
}

}  // namespace gridsub::exp
