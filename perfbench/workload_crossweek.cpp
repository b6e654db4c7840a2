// crossweek: the paper's §7 / Table 6 pipeline end to end, at the size of
// bench_crossweek_replay's quick mode.
//
//   set-up  12 synthetic scenario weeks (traces), each a replayed workload
//           on an egee_like grid;
//   fit     per week on the pool: probe campaign in the DES (sim), F̃ from
//           the probe trace (model), delayed (t0, t∞) and multiple b <= 3
//           tuned on it (core);
//   eval    12 weeks x {naive, delayed(prev), multiple(prev), delayed(own)}
//           x 4 replications through exp::run_strategy_cell on the
//           campaign engine (exp), on the same explicit pool (parallel).
//
// One iteration runs the fit stage and one replication of the eval stage;
// the replication seeds rotate, so four consecutive iterations make up the
// 12 x 4 x 4 campaign and a run performs at least those four. Short
// iterations give the run's medians many samples. The pool leaves one CPU
// free (at most 3 threads), so a neighbour on the host slows one thread's
// cells instead of stalling the whole stage behind it.
//
// Checks: every cell finishes; over all replications of the run, the mean
// tuned-vs-naive E_J gain stays near the 74 % measured at the recorded
// seed, and the worst week-ahead transfer penalty stays within the paper's
// 13 % bound.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/cost.hpp"
#include "exp/campaign.hpp"
#include "exp/experiment.hpp"
#include "exp/fold.hpp"
#include "model/discretized.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/probe_client.hpp"
#include "traces/datasets.hpp"
#include "traces/scenarios.hpp"

namespace perfbench {
namespace {

using namespace gridsub;

constexpr double kBaseRate = 0.30;  // ~74 % utilization at factor 1.0
constexpr double kWarmUp = 6.0 * 3600.0;
constexpr double kNaiveTimeout = 10000.0;
constexpr int kMultipleBudget = 3;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kPolicies = 4;
constexpr std::uint32_t kReplications = 4;  // one per iteration, rotating
constexpr unsigned kMaxThreads = 3;

// Output checks. The gain band is wide enough for quadrature and RNG
// consumption changes; the penalty bound is the paper's.
constexpr double kGainLow = 0.60;
constexpr double kGainHigh = 0.88;
constexpr double kMaxPenalty = 0.13;

struct Tuned {
  double t0 = 0.0;
  double t_inf = 0.0;
  int b = 1;
  double t_inf_multiple = 0.0;
};

class Crossweek final : public Workload {
 public:
  explicit Crossweek(const Options& options)
      : seed_(options.seed),
        tiny_(options.size == Size::kTiny),
        threads_(std::clamp(std::thread::hardware_concurrency(), 2u,
                            kMaxThreads + 1) -
                 1),
        pool_(threads_) {}

  [[nodiscard]] unsigned threads() const override { return threads_; }

  /// Tiny runs the whole (small) campaign in every iteration.
  [[nodiscard]] std::uint32_t min_iterations() const override {
    return tiny_ ? 1 : kReplications;
  }

  Iteration run_iteration(Tracer* tracer, std::uint32_t iteration,
                          Outcome& outcome) override {
    Iteration it;
    // The weeks are read-only inputs: the first iteration builds them
    // several times for a steady set-up figure, later ones once (so a
    // traced iteration records the traces layer too).
    const int repeats = weeks_.empty() ? kSetupRepeats : 1;
    for (int r = 0; r < repeats; ++r) {
      weeks_.clear();
      const Clock::time_point t = Clock::now();
      weeks_ = make_weeks(tracer);
      it.setup_s.push_back(seconds_since(t));
    }

    const Clock::time_point fit_start = Clock::now();
    const std::vector<Tuned> tuned = fit_stage(tracer, outcome);
    const double fit_s = seconds_since(fit_start);

    const Clock::time_point eval_start = Clock::now();
    std::vector<double> cell_s;
    const exp::CampaignSummary summary = eval_stage(
        tracer, tuned, iteration % kReplications, cell_s, outcome);
    const double eval_s = seconds_since(eval_start);

    // Mean J per (week, policy), summed over iterations for finish().
    mean_j_sum_.resize(weeks_.size() * kPolicies, 0.0);
    for (std::size_t w = 0; w < weeks_.size(); ++w) {
      for (std::size_t p = 0; p < kPolicies; ++p) {
        mean_j_sum_[w * kPolicies + p] += summary.mean(w, p, "mean_J");
      }
    }
    ++evaluated_;

    it.wall_s = fit_s + eval_s;
    it.rate_per_s = static_cast<double>(cell_s.size()) / eval_s;
    it.named = {{"wall_s", it.wall_s, "s"},
                {"fit_stage_s", fit_s, "s"},
                {"eval_stage_s", eval_s, "s"},
                {"eval_cells_per_s", it.rate_per_s, "1/s"},
                {"cell_p50_ms", median(cell_s) * 1e3, "ms"}};
    return it;
  }

  /// Tuned-vs-naive gain and week-ahead transfer penalty per week, over
  /// every replication the run evaluated.
  std::vector<Metric> finish(Outcome& outcome) override {
    const std::size_t n = weeks_.size();
    double gain_sum = 0.0, penalty_max = 0.0;
    for (std::size_t w = 0; w < n; ++w) {
      const double naive_j = mean_j_sum_[w * kPolicies + 0];
      const double prev_j = mean_j_sum_[w * kPolicies + 1];
      const double own_j = mean_j_sum_[w * kPolicies + 3];
      gain_sum += naive_j > 0.0 ? 1.0 - prev_j / naive_j : 0.0;
      penalty_max =
          std::max(penalty_max, own_j > 0.0 ? prev_j / own_j - 1.0 : 0.0);
    }
    const double gain = gain_sum / static_cast<double>(n);
    char what[160];
    std::snprintf(what, sizeof(what),
                  "crossweek: mean tuned-vs-naive E_J gain %.4f outside "
                  "[%.2f, %.2f]",
                  gain, kGainLow, kGainHigh);
    outcome.check(gain >= kGainLow && gain <= kGainHigh, what);
    std::snprintf(what, sizeof(what),
                  "crossweek: max transfer penalty %.4f above %.2f",
                  penalty_max, kMaxPenalty);
    outcome.check(penalty_max <= kMaxPenalty, what);
    return {{"mean_gain", gain, "fraction"},
            {"max_transfer_penalty", penalty_max, "fraction"},
            {"evaluated_iterations", static_cast<double>(evaluated_),
             "count"}};
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(
      const Tracer& tracer, std::uint32_t iteration) const override {
    const std::vector<SpanRecord> spans = tracer.spans();
    const std::vector<CounterRecord> counters = tracer.counters();
    auto sum = [&](const char* name) {
      double s = 0.0;
      for (const double d : span_durations_s(tracer, spans, name, iteration)) {
        s += d;
      }
      return s;
    };
    const std::vector<double> cells =
        span_durations_s(tracer, spans, "exp.cell", iteration);
    const double eval_s = sum("exp.eval_stage");
    return {
        {"traces.scenario_gen_s", sum("traces.scenario_gen"), "s"},
        {"exp.fit_stage_s", sum("exp.fit_stage"), "s"},
        {"exp.eval_stage_s", eval_s, "s"},
        {"exp.cell_ms.p50", percentile(cells, 0.50) * 1e3, "ms"},
        {"exp.cell_ms.p99", percentile(cells, 0.99) * 1e3, "ms"},
        {"parallel.busy_frac",
         eval_s > 0.0 ? sum("exp.cell") / (threads_ * eval_s) : 0.0,
         "fraction"},
        {"exp.cells", counter_sum(counters, "exp.cells", iteration), "count"},
        {"exp.cells_failed",
         counter_sum(counters, "exp.cells_failed", iteration), "count"},
        {"sim.probe_run_ms", sum("sim.probe_run") * 1e3, "ms"},
        {"sim.probe_events",
         counter_sum(counters, "sim.probe_events", iteration), "count"},
        {"model.from_trace_ms", sum("model.from_trace") * 1e3, "ms"},
        {"core.cost_model_ms", sum("core.cost_model") * 1e3, "ms"},
        {"core.optimize_delayed_cost_ms",
         sum("core.optimize_delayed_cost") * 1e3, "ms"},
        {"core.evaluate_multiple_ms", sum("core.evaluate_multiple") * 1e3,
         "ms"},
    };
  }

 private:
  /// The scenario weeks: the paper's 12 dataset labels, load shapes
  /// cycled, arrival rates scaled by each week's Table 1 latency regime.
  /// Tiny: the first four weeks, three days each.
  std::vector<exp::ScenarioCase> make_weeks(Tracer* tracer) const {
    const auto& datasets = traces::all_datasets();
    double mean_regime = 0.0;
    for (const auto& d : datasets) mean_regime += d.target_mean;
    mean_regime /= static_cast<double>(datasets.size());

    const auto shapes = traces::replay_scenario_names();
    const std::size_t n = tiny_ ? shapes.size() : datasets.size();
    std::vector<exp::ScenarioCase> weeks;
    weeks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      traces::ScenarioConfig scen;
      scen.base_rate = kBaseRate * std::clamp(datasets[i].target_mean /
                                                  mean_regime,
                                              0.85, 1.15);
      scen.seed = mix_seed(seed_, 100 + i);
      if (tiny_) scen.duration = 3.0 * 86400.0;
      exp::ScenarioCase sc;
      sc.label = datasets[i].name;
      sc.grid = sim::GridConfig::egee_like();
      sc.grid.background.arrival_rate = 0.0;
      {
        const Tracer::Scope span(tracer, "traces.scenario_gen", i + 1);
        sc.workload = std::make_shared<const traces::Workload>(
            traces::make_scenario(shapes[i % shapes.size()], scen));
      }
      weeks.push_back(std::move(sc));
    }
    return weeks;
  }

  /// Probe, fit and tune one week (runs on a pool thread).
  Tuned fit_week(std::size_t w, Tracer* tracer, std::uint64_t stage) const {
    const exp::ScenarioCase& week = weeks_[w];
    const std::uint64_t group = 0x1000 + w;
    const Tracer::Scope cell(tracer, "exp.fit_week", group, stage);

    traces::Trace trace("probes", kNaiveTimeout);
    {
      const Tracer::Scope span(tracer, "sim.probe_run", group);
      sim::GridConfig config = week.grid;
      config.seed = mix_seed(seed_, 200 + w);
      sim::GridSimulation grid(config);
      grid.attach_replay(*week.workload, week.replay);
      grid.warm_up(kWarmUp);
      sim::ProbeCampaignConfig probe;
      probe.n_probes = 50000;  // effectively "probe until the week ends"
      probe.concurrent = 10;
      probe.timeout = kNaiveTimeout;
      sim::ProbeClient probes(grid, probe, week.label + "-probes");
      probes.start();
      grid.simulator().run_until(week.workload->duration());
      trace = probes.trace();
      if (tracer != nullptr) {
        tracer->count("sim.probe_events",
                      static_cast<double>(grid.simulator().processed_events()));
      }
    }

    const auto fitted = [&] {
      const Tracer::Scope span(tracer, "model.from_trace", group);
      return model::DiscretizedLatencyModel::from_trace(trace, 1.0);
    }();
    const auto cost = [&] {
      const Tracer::Scope span(tracer, "core.cost_model", group);
      return std::make_unique<core::CostModel>(fitted);
    }();

    Tuned p;
    {
      const Tracer::Scope span(tracer, "core.optimize_delayed_cost", group);
      const core::CostEvaluation delayed = cost->optimize_delayed_cost();
      p.t0 = delayed.t0;
      p.t_inf = delayed.t_inf;
    }
    const Tracer::Scope span(tracer, "core.evaluate_multiple", group);
    const core::CostEvaluation single_copy = cost->evaluate_multiple(1);
    double best_ej = single_copy.expectation;
    p.t_inf_multiple = single_copy.t_inf;
    for (int b = 2; b <= kMultipleBudget; ++b) {
      const core::CostEvaluation e = cost->evaluate_multiple(b);
      if (e.expectation < best_ej) {
        best_ej = e.expectation;
        p.b = b;
        p.t_inf_multiple = e.t_inf;
      }
    }
    return p;
  }

  std::vector<Tuned> fit_stage(Tracer* tracer, Outcome& outcome) {
    const Tracer::Scope stage(tracer, "exp.fit_stage");
    std::vector<std::future<Tuned>> pending;
    pending.reserve(weeks_.size());
    for (std::size_t w = 0; w < weeks_.size(); ++w) {
      pending.push_back(pool_.submit(
          [this, w, tracer, id = stage.id()] { return fit_week(w, tracer, id); }));
    }
    std::vector<Tuned> tuned(weeks_.size());
    std::size_t failed = 0;
    for (std::size_t w = 0; w < weeks_.size(); ++w) {
      try {
        tuned[w] = pending[w].get();
      } catch (const std::exception& e) {
        ++failed;
        outcome.check(false, "crossweek: fit of week " + weeks_[w].label +
                                 " threw: " + e.what());
      }
    }
    outcome.attempted += weeks_.size();
    outcome.failed += failed;
    if (tracer != nullptr) {
      tracer->count("exp.cells", static_cast<double>(weeks_.size()));
      tracer->count("exp.cells_failed", static_cast<double>(failed));
    }
    return tuned;
  }

  /// One replication of the campaign (tiny: the whole two-replication
  /// campaign), seeded by its index.
  exp::CampaignSummary eval_stage(Tracer* tracer,
                                  const std::vector<Tuned>& tuned,
                                  std::uint32_t replication,
                                  std::vector<double>& cell_s,
                                  Outcome& outcome) {
    const Tracer::Scope stage(tracer, "exp.eval_stage");
    exp::CampaignAxes axes;
    axes.name = "crossweek_eval";
    axes.scenario_axis = "week";
    axes.strategy_axis = "policy";
    for (const auto& w : weeks_) axes.scenario_labels.push_back(w.label);
    axes.strategy_labels = {"naive", "delayed(prev)", "multiple(prev)",
                            "delayed(own)"};
    axes.replications = tiny_ ? 2 : 1;
    axes.root_seed = mix_seed(seed_, 300 + (tiny_ ? 0 : replication));

    exp::ClientConfig clients;
    clients.warm_up = kWarmUp;
    const std::size_t n = weeks_.size();
    cell_s.assign(axes.cell_count(), 0.0);
    std::vector<char> cell_failed(axes.cell_count(), 0);

    exp::CampaignOptions options;
    options.pool = &pool_;
    const exp::CampaignRunner runner(options);
    exp::FoldSink sink;
    runner.run_with_sink(
        axes,
        [&, id = stage.id()](const exp::CellContext& ctx) {
          const Tracer::Scope span(tracer, "exp.cell", 0x2000 + ctx.flat, id);
          const Clock::time_point t = Clock::now();
          const std::size_t prev = (ctx.scenario + n - 1) % n;
          sim::StrategySpec spec;
          switch (ctx.strategy) {
            case 0:  // naive: resubmit only at the outlier horizon
              spec.kind = core::StrategyKind::kSingleResubmission;
              spec.t_inf = kNaiveTimeout;
              break;
            case 1:  // tuned on last week, deployed this week
              spec.kind = core::StrategyKind::kDelayedResubmission;
              spec.t0 = tuned[prev].t0;
              spec.t_inf = tuned[prev].t_inf;
              break;
            case 2:  // multiple submission tuned on last week
              spec.kind = core::StrategyKind::kMultipleSubmission;
              spec.b = tuned[prev].b;
              spec.t_inf = tuned[prev].t_inf_multiple;
              break;
            default:  // oracle: this week's own tuned parameters
              spec.kind = core::StrategyKind::kDelayedResubmission;
              spec.t0 = tuned[ctx.scenario].t0;
              spec.t_inf = tuned[ctx.scenario].t_inf;
          }
          double mean_j = std::numeric_limits<double>::quiet_NaN();
          double done = 0.0;
          try {
            for (const auto& [name, value] : exp::run_strategy_cell(
                     weeks_[ctx.scenario], spec, clients, ctx.seed)) {
              if (name == "mean_J") mean_j = value;
              if (name == "tasks_done") done = value;
            }
          } catch (const std::exception&) {
            done = 0.0;
          }
          cell_failed[ctx.flat] = !(done > 0.0 && std::isfinite(mean_j) &&
                                    mean_j > 0.0);
          cell_s[ctx.flat] = seconds_since(t);
          return exp::CellMetrics{{"mean_J", mean_j}, {"tasks_done", done}};
        },
        sink);

    std::size_t failed = 0;
    for (std::size_t c = 0; c < cell_failed.size(); ++c) {
      if (cell_failed[c] != 0) {
        ++failed;
        outcome.check(false, "crossweek: eval cell " + std::to_string(c) +
                                 " threw or finished no task");
      }
    }
    outcome.attempted += cell_failed.size();
    outcome.failed += failed;
    if (tracer != nullptr) {
      tracer->count("exp.cells", static_cast<double>(cell_failed.size()));
      tracer->count("exp.cells_failed", static_cast<double>(failed));
    }
    return sink.take();
  }

  std::uint64_t seed_;
  bool tiny_;
  unsigned threads_;
  par::ThreadPool pool_;
  std::vector<exp::ScenarioCase> weeks_;
  std::vector<double> mean_j_sum_;  ///< [week * kPolicies + policy]
  std::uint32_t evaluated_ = 0;     ///< iterations summed into mean_j_sum_
};

}  // namespace

std::unique_ptr<Workload> make_crossweek(const Options& options) {
  return std::make_unique<Crossweek>(options);
}

}  // namespace perfbench
