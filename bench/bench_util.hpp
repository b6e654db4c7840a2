#pragma once

// Shared helpers for the experiment harness: dataset-to-model plumbing,
// campaign-spec builders, and consistent headers so every bench prints a
// self-describing report.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "exp/experiment.hpp"
#include "model/discretized.hpp"
#include "traces/datasets.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::bench {

/// Grid step used by all table/figure benches (1 s, i.e. the integer
/// resolution the paper uses for practical timeouts).
inline constexpr double kStep = 1.0;

/// Builds the discretized empirical model of a named dataset.
inline model::DiscretizedLatencyModel load_model(const std::string& name,
                                                 double step = kStep) {
  const auto trace = traces::make_trace_by_name(name);
  return model::DiscretizedLatencyModel::from_trace(trace, step);
}

/// True when the bench runner asked for a fast smoke pass
/// (GRIDSUB_BENCH_QUICK=1): campaign benches shrink replications, never
/// axes, so coverage stays full while CI stays fast.
inline bool quick_mode() {
  const char* v = std::getenv("GRIDSUB_BENCH_QUICK");
  return v != nullptr && v[0] == '1';
}

/// Builds the campaign scenario for one synthetic replay week: an
/// egee_like grid whose Poisson background is silenced (the replayed
/// workload *is* the background traffic) plus the named scenario's
/// workload, shared read-only across cells.
inline exp::ScenarioCase replay_scenario(const std::string& name,
                                         const traces::ScenarioConfig& scen) {
  exp::ScenarioCase sc;
  sc.label = name;
  sc.grid = sim::GridConfig::egee_like();
  sc.grid.background.arrival_rate = 0.0;
  sc.workload = std::make_shared<const traces::Workload>(
      traces::make_scenario(name, scen));
  return sc;
}

/// Wraps a campaign progress callback with the GRIDSUB_PROGRESS=1 stderr
/// meter: completed/total plus an ETA extrapolated from the cell rate so
/// far. Throttled to one line every ~2 s plus the final snapshot, and the
/// snapshots fire under the runner's progress lock, so the meter stays
/// cheap and never throws. Returns `inner` unchanged when the meter is
/// off.
inline std::function<void(const exp::CampaignProgress&)> progress_meter(
    const std::string& name,
    std::function<void(const exp::CampaignProgress&)> inner = {}) {
  const char* v = std::getenv("GRIDSUB_PROGRESS");
  if (v == nullptr || v[0] != '1') return inner;
  using Clock = std::chrono::steady_clock;
  struct Meter {
    std::string name;
    Clock::time_point start = Clock::now();
    Clock::time_point last{};  // epoch: the first snapshot always prints
  };
  auto meter = std::make_shared<Meter>();
  meter->name = name;
  return [meter, inner = std::move(inner)](const exp::CampaignProgress& p) {
    if (inner) inner(p);
    const Clock::time_point now = Clock::now();
    const bool done = p.completed == p.total;
    if (!done && now - meter->last < std::chrono::seconds(2)) return;
    meter->last = now;
    std::string line = "[progress] " + meter->name + ": " +
                       std::to_string(p.completed) + "/" +
                       std::to_string(p.total) + " cells";
    const double elapsed =
        std::chrono::duration<double>(now - meter->start).count();
    char buf[32];
    if (done) {
      std::snprintf(buf, sizeof(buf), ", done in %.1fs", elapsed);
      line += buf;
    } else if (elapsed > 0.0) {
      const double rate = static_cast<double>(p.completed) / elapsed;
      const double eta = static_cast<double>(p.total - p.completed) / rate;
      std::snprintf(buf, sizeof(buf), ", eta %.0fs", eta);
      line += buf;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  };
}

/// Writes `result` as <dir>/<campaign>.json when GRIDSUB_CAMPAIGN_JSON_DIR
/// names a directory: the byte-identity witness a refactor is diffed
/// against. A failed write ends the bench with exit 1, so a broken
/// witness fails loudly here instead of at diff time.
inline void write_campaign_json(const exp::CampaignResult& result,
                                const std::string& campaign) {
  const char* dir = std::getenv("GRIDSUB_CAMPAIGN_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = std::string(dir) + "/" + campaign + ".json";
  std::ofstream os(path, std::ios::binary);
  if (os) result.write_json(os);
  if (!os || !os.flush()) {
    std::fprintf(stderr, "cannot write campaign result '%s'\n",
                 path.c_str());
    std::exit(1);
  }
}

/// Runs one campaign with the GRIDSUB_PROGRESS meter and writes its
/// GRIDSUB_CAMPAIGN_JSON_DIR witness. Campaign names must be unique
/// within a bench — the JSON file is keyed on them.
inline exp::CampaignResult run_campaign(const exp::CampaignAxes& axes,
                                        const exp::CellEvaluator& evaluate,
                                        exp::CampaignOptions options = {}) {
  options.on_progress =
      progress_meter(axes.name, std::move(options.on_progress));
  exp::CampaignResult result =
      exp::CampaignRunner(std::move(options)).run(axes, evaluate);
  write_campaign_json(result, axes.name);
  return result;
}

/// ExperimentSpec overload of run_campaign.
inline exp::CampaignResult run_campaign(const exp::ExperimentSpec& spec,
                                        exp::CampaignOptions options = {}) {
  options.on_progress =
      progress_meter(spec.name, std::move(options.on_progress));
  exp::CampaignResult result = exp::run_experiment(spec, options);
  write_campaign_json(result, spec.name);
  return result;
}

/// Looks up one metric of a cell by name; throws std::out_of_range so a
/// renamed fit metric fails loudly instead of feeding zeros downstream.
inline double cell_metric(const exp::CellResult& cell,
                          const std::string& name) {
  for (const auto& [metric, value] : cell.metrics) {
    if (metric == name) return value;
  }
  throw std::out_of_range("cell " + std::to_string(cell.context.flat) +
                          " has no metric '" + name + "'");
}

/// Prints the standard bench header.
inline void print_header(const std::string& experiment,
                         const std::string& paper_ref,
                         const std::string& note = "") {
  std::cout << "== gridsub experiment: " << experiment << " ==\n";
  std::cout << "reproduces: " << paper_ref
            << " (Lingrand/Montagnat/Glatard, HPDC'09)\n";
  std::cout << "data: synthetic EGEE-like traces calibrated to the paper's "
               "Table 1 (see DESIGN.md)\n";
  if (!note.empty()) std::cout << "note: " << note << "\n";
  std::cout << "\n";
}

}  // namespace gridsub::bench
