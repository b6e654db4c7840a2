// One simulation, a million users (ROADMAP): a single DES week with
// 10^4 -> 10^6 concurrent strategy clients, so cross-user feedback — the
// paper's "multiple submission raises infrastructure load" caveat — is
// measured inside one grid instead of averaged over many small cells.
//
// Two sections:
//   1. Scale sweep: replay a stationary scenario week into one
//      GridSimulation while N mixed-strategy clients run their task
//      streams; the headline is events/sec of simulation progress plus
//      peak RSS per point.
//   2. Equilibrium study (bench_des_feedback's question at scale): sweep
//      the fraction of clients that tune (multiple b=3) against a naive
//      single-resubmission population and report per-group mean J — what
//      happens when *everyone* tunes is read off the 100% row.
//
// Wall-clock throughput is intentionally reported here, NOT through
// campaign CellMetrics: campaign output is contractually byte-identical
// across thread counts and machines (docs/determinism.md), and wall time
// is neither. The simulated results (tasks done, mean J, submissions) are
// deterministic; the events/sec column is honest wall-clock and varies.
// GRIDSUB_PROGRESS=1 emits a completed/total + ETA meter on stderr.
//
// GRIDSUB_BENCH_QUICK=1 caps the sweep at 10^5 clients (a full simulated
// week under CI); the full run extends to 10^6.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "numerics/kahan.hpp"
#include "report/table.hpp"
#include "sim/grid.hpp"
#include "sim/strategy_client.hpp"
#include "traces/scenarios.hpp"

namespace {

using namespace gridsub;

/// Peak resident set (MiB) from /proc/self/status (VmHWM); 0 where
/// unsupported. Monotone over the process lifetime, so points run in
/// ascending size order and the largest point owns the final number.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The three paper strategies, assigned round-robin for the mixed
/// population.
sim::StrategySpec mixed_spec(std::size_t i) {
  sim::StrategySpec spec;
  switch (i % 3) {
    case 0:
      spec.kind = core::StrategyKind::kSingleResubmission;
      spec.t_inf = 1500.0;
      break;
    case 1:
      spec.kind = core::StrategyKind::kMultipleSubmission;
      spec.b = 3;
      spec.t_inf = 900.0;
      break;
    default:
      spec.kind = core::StrategyKind::kDelayedResubmission;
      spec.t0 = 600.0;
      spec.t_inf = 900.0;
      break;
  }
  return spec;
}

struct PointResult {
  std::size_t clients = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_second = 0.0;
  std::uint64_t tasks_done = 0;
  double mean_latency = 0.0;   ///< deterministic
  double mean_submissions = 0.0;  ///< deterministic
  double mean_queue_wait = 0.0;   ///< deterministic (all jobs, admin view)
  double rss_mib = 0.0;
};

/// Runs one single-grid point: N clients with per-index specs, optional
/// replayed scenario week, bounded horizon. Clients keep running means
/// only (record_outcomes=false) so memory scales with N, not N x tasks.
PointResult run_point(
    std::size_t n_clients, double horizon,
    std::size_t tasks_per_client, std::size_t slots_per_client_x1000,
    const std::function<sim::StrategySpec(std::size_t)>& spec_for,
    const traces::Workload* week, double task_runtime = 1.0) {
  sim::GridConfig config = sim::GridConfig::egee_like();
  // Capacity grows with the population (a grid serving 10^6 users has
  // more than 10^3 cores); the divisor picks how contended it is.
  const std::size_t factor =
      std::max<std::size_t>(1, n_clients * slots_per_client_x1000 / 1000 /
                                   static_cast<std::size_t>(1000));
  for (auto& element : config.elements) {
    element.slots = static_cast<int>(element.slots * factor);
  }
  if (week != nullptr) config.background.arrival_rate = 0.0;

  sim::GridSimulation grid(config);
  if (week != nullptr) grid.attach_replay(*week);

  std::deque<sim::StrategyClient> clients;
  for (std::size_t i = 0; i < n_clients; ++i) {
    clients.emplace_back(grid, spec_for(i), tasks_per_client, task_runtime,
                         /*record_outcomes=*/false);
  }
  for (auto& client : clients) client.start();

  const auto wall_start = std::chrono::steady_clock::now();
  grid.simulator().run_until(horizon);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  PointResult result;
  result.clients = n_clients;
  result.events = grid.simulator().processed_events();
  result.wall_seconds = wall;
  result.events_per_second =
      wall > 0.0 ? static_cast<double>(result.events) / wall : 0.0;
  numerics::KahanAccumulator latency_sum;
  numerics::KahanAccumulator submission_sum;
  for (const auto& client : clients) {
    result.tasks_done += client.tasks_done();
    const auto n = static_cast<double>(client.tasks_done());
    latency_sum.add(client.mean_latency() * n);
    submission_sum.add(client.mean_submissions() * n);
  }
  if (result.tasks_done > 0) {
    result.mean_latency =
        latency_sum.value() / static_cast<double>(result.tasks_done);
    result.mean_submissions =
        submission_sum.value() / static_cast<double>(result.tasks_done);
  }
  result.mean_queue_wait = grid.metrics().mean_queue_wait();
  result.rss_mib = peak_rss_mib();
  return result;
}

/// Runs the bench's work items in order; with GRIDSUB_PROGRESS=1 it
/// reports each finished item on stderr with an ETA extrapolated from the
/// items done so far.
class ItemRunner {
 public:
  explicit ItemRunner(std::size_t total) : total_(total) {
    const char* v = std::getenv("GRIDSUB_PROGRESS");
    meter_ = v != nullptr && v[0] == '1';
  }

  void run(const std::string& label, const std::function<void()>& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    elapsed_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ++completed_;
    if (meter_) {
      const double eta = elapsed_ / static_cast<double>(completed_) *
                         static_cast<double>(total_ - completed_);
      std::fprintf(stderr,
                   "[scale_million] %zu/%zu done (%s), elapsed %.1fs, "
                   "eta %.1fs\n",
                   completed_, total_, label.c_str(), elapsed_, eta);
    }
  }

 private:
  std::size_t total_;
  bool meter_ = false;
  std::size_t completed_ = 0;
  double elapsed_ = 0.0;
};

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  bench::print_header(
      "scale_million",
      "one DES week, 10^4-10^6 concurrent strategy clients",
      quick ? "quick: sweep capped at 1e5 clients"
            : "full: sweep up to 1e6 clients");

  const double week = 604800.0;
  const std::vector<std::size_t> sweep =
      quick ? std::vector<std::size_t>{10'000, 32'000, 100'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  const std::size_t tasks = quick ? 4 : 8;
  const std::size_t eq_clients = quick ? 10'000 : 100'000;
  const double eq_horizon = 1.2e5;

  // Work items: sweep points, then equilibrium fractions.
  const std::vector<int> eq_tuned_of_4 = {0, 1, 2, 4};
  ItemRunner runner(sweep.size() + eq_tuned_of_4.size());

  // --- 1. scale sweep ---------------------------------------------------
  const traces::Workload stationary =
      traces::make_scenario("stationary-week");
  std::vector<PointResult> sweep_results;
  for (const std::size_t n : sweep) {
    runner.run("sweep n=" + std::to_string(n), [&] {
      sweep_results.push_back(run_point(n, week, tasks,
                                        /*slots_per_client_x1000=*/1000,
                                        mixed_spec, &stationary));
    });
  }
  report::Table sweep_table({"clients", "events", "events/s", "wall (s)",
                             "tasks done", "mean J (s)", "mean subs",
                             "peak RSS (MiB)"});
  for (const PointResult& r : sweep_results) {
    sweep_table.row()
        .cell(static_cast<long long>(r.clients))
        .cell(static_cast<long long>(r.events))
        .cell(r.events_per_second, 0)
        .cell(r.wall_seconds, 2)
        .cell(static_cast<long long>(r.tasks_done))
        .cell(r.mean_latency, 1)
        .cell(r.mean_submissions, 2)
        .cell(r.rss_mib, 1);
  }
  std::cout << "scenario week replayed into one grid, mixed "
               "single/multiple/delayed population:\n";
  sweep_table.print(std::cout);
  std::cout << '\n';

  // --- 2. everyone-tunes equilibrium ------------------------------------
  struct EqRow {
    int tuned_of_4;
    PointResult result;
  };
  std::vector<EqRow> eq_rows;
  for (const int tuned : eq_tuned_of_4) {
    runner.run("equilibrium " + std::to_string(25 * tuned) + "% tuned", [&] {
      const auto spec_for = [tuned](std::size_t i) {
        // Interleaved assignment: every block of 4 clients has `tuned`
        // tuned members, so groups see the same grid.
        if (static_cast<int>(i % 4) < tuned) {
          sim::StrategySpec tuned_spec;
          tuned_spec.kind = core::StrategyKind::kMultipleSubmission;
          tuned_spec.b = 3;
          tuned_spec.t_inf = 900.0;
          return tuned_spec;
        }
        sim::StrategySpec naive;
        naive.kind = core::StrategyKind::kSingleResubmission;
        naive.t_inf = 1500.0;
        return naive;
      };
      // Scarce capacity (0.15 slots/client vs. the sweep's 1.0) and
      // 600 s tasks: a losing copy that got a seat burns real slot-time
      // before its sibling's completion cancels it, so everyone tuning has
      // a visible cost.
      eq_rows.push_back({tuned, run_point(eq_clients, eq_horizon,
                                          /*tasks=*/3,
                                          /*slots_per_client_x1000=*/150,
                                          spec_for, nullptr,
                                          /*task_runtime=*/600.0)});
    });
  }
  report::Table eq_table({"tuned share", "tasks done", "mean J (s)",
                          "mean subs", "queue wait (s)", "events"});
  for (const EqRow& row : eq_rows) {
    eq_table.row()
        .cell(std::to_string(25 * row.tuned_of_4) + "%")
        .cell(static_cast<long long>(row.result.tasks_done))
        .cell(row.result.mean_latency, 1)
        .cell(row.result.mean_submissions, 2)
        .cell(row.result.mean_queue_wait, 1)
        .cell(static_cast<long long>(row.result.events));
  }
  std::cout << "everyone-tunes equilibrium, " << eq_clients
            << " clients (extends bench_des_feedback):\n";
  eq_table.print(std::cout);
  std::cout << "\ntakeaway: partial adoption lowers mean J, but as "
               "adoption approaches 100% the gain erodes — J rises back "
               "above the partial-adoption rows while submissions per "
               "task and broker traffic multiply: individually optimal "
               "is not collectively optimal, the paper's stated caveat "
               "made quantitative.\n";
  return 0;
}
