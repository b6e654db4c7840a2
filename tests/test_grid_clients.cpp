// Integration tests: probe campaigns and strategy clients on the full
// simulated grid.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/grid.hpp"
#include "sim/probe_client.hpp"
#include "sim/strategy_client.hpp"

namespace gridsub::sim {
namespace {

GridConfig small_grid() {
  GridConfig config = GridConfig::egee_like();
  // Shrink for test speed: fewer sites, lighter background load.
  config.elements = {{40, 0.01}, {24, 0.02}, {16, 0.03}};
  config.background.arrival_rate = 0.03;
  config.background.runtime_mean = 1500.0;
  return config;
}

TEST(GridSimulation, BuildsAndWarmsUp) {
  GridSimulation grid(small_grid());
  grid.warm_up(5000.0);
  EXPECT_GT(grid.simulator().processed_events(), 10u);
  EXPECT_GT(grid.metrics().jobs_submitted, 0u);
}

TEST(GridSimulation, DeterministicForFixedSeed) {
  GridConfig config = small_grid();
  GridSimulation a(config), b(config);
  a.warm_up(20000.0);
  b.warm_up(20000.0);
  EXPECT_EQ(a.metrics().jobs_submitted, b.metrics().jobs_submitted);
  EXPECT_EQ(a.metrics().jobs_started, b.metrics().jobs_started);
}

TEST(ProbeClient, CollectsTheRequestedNumberOfProbes) {
  GridSimulation grid(small_grid());
  grid.warm_up(10000.0);
  ProbeCampaignConfig pc;
  pc.n_probes = 200;
  pc.concurrent = 5;
  pc.timeout = 8000.0;
  ProbeClient probe(grid, pc, "sim-campaign");
  probe.start();
  grid.simulator().run_until(grid.simulator().now() + 3e6,
                             [&probe] { return probe.done(); });
  EXPECT_TRUE(probe.done());
  EXPECT_EQ(probe.trace().size(), 200u);
  EXPECT_EQ(probe.trace().name(), "sim-campaign");
}

TEST(ProbeClient, LatenciesAreInTheGridRegime) {
  GridSimulation grid(small_grid());
  grid.warm_up(10000.0);
  ProbeCampaignConfig pc;
  pc.n_probes = 300;
  pc.concurrent = 10;
  ProbeClient probe(grid, pc);
  probe.start();
  grid.simulator().run_until(grid.simulator().now() + 5e6,
                             [&probe] { return probe.done(); });
  ASSERT_TRUE(probe.done());
  const auto stats = probe.trace().stats();
  // Matchmaking alone is ~5 hops × 25 s; latencies must exceed that and
  // stay within the campaign timeout by construction.
  EXPECT_GT(stats.mean_completed, 30.0);
  EXPECT_LT(stats.mean_completed, 10000.0);
  EXPECT_LT(stats.outlier_ratio, 0.5);
}

TEST(StrategyClient, SingleResubmissionCompletesTasks) {
  GridSimulation grid(small_grid());
  grid.warm_up(10000.0);
  StrategySpec spec;
  spec.kind = core::StrategyKind::kSingleResubmission;
  spec.t_inf = 2000.0;
  StrategyClient client(grid, spec, 50);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 5e6,
                             [&client] { return client.done(); });
  ASSERT_TRUE(client.done());
  EXPECT_EQ(client.outcomes().size(), 50u);
  EXPECT_GT(client.mean_latency(), 0.0);
  EXPECT_GE(client.mean_submissions(), 1.0);
}

TEST(StrategyClient, MultipleSubmissionUsesBCopies) {
  GridSimulation grid(small_grid());
  grid.warm_up(10000.0);
  StrategySpec spec;
  spec.kind = core::StrategyKind::kMultipleSubmission;
  spec.b = 3;
  spec.t_inf = 2000.0;
  StrategyClient client(grid, spec, 40);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 5e6,
                             [&client] { return client.done(); });
  ASSERT_TRUE(client.done());
  // Submissions per task are a multiple of b per round.
  EXPECT_GE(client.mean_submissions(), 3.0);
  for (const auto& o : client.outcomes()) {
    EXPECT_EQ(o.submissions % 3, 0);
  }
}

TEST(StrategyClient, MultipleIsFasterThanSingleOnTheSameGrid) {
  // The paper's core observation, reproduced end-to-end in the DES: with
  // identical seeds and load, b = 3 beats b = 1 on mean latency.
  const auto run = [](int b) {
    GridSimulation grid(small_grid());
    grid.warm_up(10000.0);
    StrategySpec spec;
    spec.kind = b == 1 ? core::StrategyKind::kSingleResubmission
                       : core::StrategyKind::kMultipleSubmission;
    spec.b = b;
    spec.t_inf = 1500.0;
    StrategyClient client(grid, spec, 120);
    client.start();
    grid.simulator().run_until(grid.simulator().now() + 2e7,
                               [&client] { return client.done(); });
    EXPECT_TRUE(client.done());
    return client.mean_latency();
  };
  const double single = run(1);
  const double multi = run(3);
  EXPECT_LT(multi, single);
}

TEST(StrategyClient, DelayedKeepsAtMostTwoCopies) {
  GridSimulation grid(small_grid());
  grid.warm_up(10000.0);
  StrategySpec spec;
  spec.kind = core::StrategyKind::kDelayedResubmission;
  spec.t0 = 700.0;
  spec.t_inf = 1200.0;
  StrategyClient client(grid, spec, 40);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 5e6,
                             [&client] { return client.done(); });
  ASSERT_TRUE(client.done());
  EXPECT_GE(client.mean_submissions(), 1.0);
  // Every task terminates with J >= 0 and a plausible copy count.
  for (const auto& o : client.outcomes()) {
    EXPECT_GE(o.total_latency, 0.0);
    EXPECT_GE(o.submissions, 1);
  }
}

TEST(StrategyClient, RejectsInvalidSpecs) {
  GridSimulation grid(small_grid());
  StrategySpec bad;
  bad.kind = core::StrategyKind::kDelayedResubmission;
  bad.t0 = 500.0;
  bad.t_inf = 1200.0;  // > 2 * t0
  EXPECT_THROW(StrategyClient(grid, bad, 5), std::invalid_argument);
  StrategySpec bad2;
  bad2.t_inf = -1.0;
  EXPECT_THROW(StrategyClient(grid, bad2, 5), std::invalid_argument);
  StrategySpec ok;
  EXPECT_THROW(StrategyClient(grid, ok, 0), std::invalid_argument);
}

TEST(GridMetrics, CancellationsAreVisibleToAdministrators) {
  // Aggressive strategies cancel jobs; the metrics must expose that load.
  GridSimulation grid(small_grid());
  grid.warm_up(5000.0);
  StrategySpec spec;
  spec.kind = core::StrategyKind::kMultipleSubmission;
  spec.b = 5;
  spec.t_inf = 1000.0;
  StrategyClient client(grid, spec, 60);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 1e7);
  ASSERT_TRUE(client.done());
  EXPECT_GT(grid.metrics().jobs_canceled, 0u);
  EXPECT_GT(grid.metrics().cancel_fraction(), 0.0);
}

/// Runs the standard mixed-strategy mini-grid and serializes the full
/// observable trajectory: every client outcome in completion order plus
/// the grid counters and event totals.
std::string trajectory_digest() {
  GridSimulation grid(GridConfig::egee_like());
  grid.warm_up(1800.0);

  std::vector<std::unique_ptr<StrategyClient>> clients;
  StrategySpec single;
  single.kind = core::StrategyKind::kSingleResubmission;
  StrategySpec multiple;
  multiple.kind = core::StrategyKind::kMultipleSubmission;
  multiple.b = 3;
  StrategySpec delayed;
  delayed.kind = core::StrategyKind::kDelayedResubmission;
  delayed.t0 = 600.0;
  delayed.t_inf = 900.0;
  for (const auto& spec : {single, multiple, delayed}) {
    for (int i = 0; i < 2; ++i) {
      clients.push_back(std::make_unique<StrategyClient>(grid, spec, 6));
      clients.back()->start();
    }
  }
  // Bounded horizon: background arrivals reschedule forever, so run()
  // would never drain. 2e5 s is orders of magnitude beyond what 6 tasks
  // per client need.
  grid.simulator().run_until(grid.simulator().now() + 2e5);

  std::ostringstream out;
  out.precision(17);
  for (const auto& client : clients) {
    EXPECT_TRUE(client->done());
    for (const TaskOutcome& o : client->outcomes()) {
      out << o.total_latency << ',' << o.submissions << ';';
    }
  }
  out << '|' << grid.simulator().processed_events() << '|'
      << grid.simulator().now() << '|' << grid.metrics().jobs_dispatched
      << '|' << grid.metrics().jobs_canceled;
  return out.str();
}

TEST(GridSimulation, TrajectoryStableAcrossThreadCounts) {
  // Distinct grids share no mutable state, so concurrent runs on 1, 2
  // and 8 pool threads must each reproduce the sequential trajectory.
  const std::string reference = trajectory_digest();
  EXPECT_FALSE(reference.empty());
  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(n_threads);
    std::vector<std::future<std::string>> futures;
    futures.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) {
      futures.push_back(pool.submit([] { return trajectory_digest(); }));
    }
    for (auto& f : futures) EXPECT_EQ(f.get(), reference);
  }
}

}  // namespace
}  // namespace gridsub::sim
