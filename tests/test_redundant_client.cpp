// Related-work baselines (K-distributed, K-dual, K-random) on the DES grid,
// plus the dual-lane computing-element semantics they rely on. A case that
// reads client outcomes only stops its run once the client is done: the
// outcomes are final then, and the rest of the horizon would only simulate
// background traffic.

#include "sched/redundant_client.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/grid.hpp"

namespace gridsub::sched {
namespace {

sim::GridConfig small_grid() {
  sim::GridConfig config = sim::GridConfig::egee_like();
  config.elements = {{30, 0.01}, {20, 0.02}, {16, 0.01}, {12, 0.02}};
  config.background.arrival_rate = 0.05;
  config.background.runtime_mean = 1200.0;
  return config;
}

TEST(RedundantClient, CompletesAllTasks) {
  sim::GridSimulation grid(small_grid());
  grid.warm_up(5000.0);
  BaselineSpec spec;
  spec.scheme = BaselineScheme::kKDistributed;
  spec.k = 2;
  RedundantClient client(grid, spec, 40, 600.0);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 1e7,
                             [&client] { return client.done(); });
  ASSERT_TRUE(client.done());
  EXPECT_EQ(client.outcomes().size(), 40u);
  for (const auto& o : client.outcomes()) {
    EXPECT_GE(o.latency, 0.0);
    EXPECT_GE(o.slowdown, 1.0);
    EXPECT_GE(o.submissions, 2);
  }
}

TEST(RedundantClient, SlowdownDefinitionHolds) {
  sim::GridSimulation grid(small_grid());
  grid.warm_up(5000.0);
  BaselineSpec spec;
  spec.k = 1;
  RedundantClient client(grid, spec, 25, 300.0);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 1e7,
                             [&client] { return client.done(); });
  ASSERT_TRUE(client.done());
  for (const auto& o : client.outcomes()) {
    EXPECT_NEAR(o.slowdown, (o.latency + 300.0) / 300.0, 1e-12);
  }
}

TEST(RedundantClient, KClampedToSiteCount) {
  sim::GridSimulation grid(small_grid());
  grid.warm_up(2000.0);
  BaselineSpec spec;
  spec.k = 50;  // only 4 sites exist
  RedundantClient client(grid, spec, 10, 500.0);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 5e6,
                             [&client] { return client.done(); });
  ASSERT_TRUE(client.done());
  for (const auto& o : client.outcomes()) {
    EXPECT_LE(o.submissions, 4 * o.rounds);
  }
}

TEST(RedundantClient, MoreCopiesReduceMeanSlowdown) {
  // Subramani's headline: slowdown decreases as K grows 1 -> 4. The gain
  // exists because dispatch-time load information is uncertain: here the
  // background lands unevenly (random dispatch over heterogeneous sites)
  // and the client's load view is minutes-stale, so a single "least
  // loaded" pick often queues behind a burst while K copies hedge it.
  // The claim is about the mean over grids: on one grid, whether a K=1
  // job is lost to a fault and waits out the 6000 s safety timeout can
  // decide the gap alone, so both K run on the same eight grid seeds.
  const auto run = [](int k, std::uint64_t seed) {
    sim::GridConfig config = small_grid();
    config.seed = seed;
    config.wms.dispatch = sim::WmsConfig::Dispatch::kUniformRandom;
    // ~85% utilization: busy but stable queues (capacity is 78 slots).
    config.background.arrival_rate = 0.055;
    sim::GridSimulation grid(config);
    grid.warm_up(40000.0);
    BaselineSpec spec;
    spec.scheme = BaselineScheme::kKDistributed;
    spec.k = k;
    spec.info_staleness = 600.0;
    RedundantClient client(grid, spec, 120, 400.0);
    client.start();
    // Every task is back within ~1e5 s; 6e7 s is only the cap.
    grid.simulator().run_until(grid.simulator().now() + 6e7,
                               [&client] { return client.done(); });
    EXPECT_TRUE(client.done()) << "k=" << k << " seed=" << seed;
    return client.mean_slowdown();
  };
  double s1 = 0.0;
  double s4 = 0.0;
  for (const std::uint64_t seed :
       {20090611u, 1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    s1 += run(1, seed) / 8.0;
    s4 += run(4, seed) / 8.0;
  }
  EXPECT_LT(s4, s1);
}

TEST(RedundantClient, DualQueueDuplicatesYieldToLocalWork) {
  // With every foreign queue saturated by local work, K-dual duplicates
  // (remote lane) never start; the home copy always wins.
  sim::GridConfig config = small_grid();
  config.background.arrival_rate = 0.0;
  sim::GridSimulation grid(config);
  // Saturate sites 1..3 with local jobs far outlasting the test horizon;
  // leave site 0 (home) free.
  for (std::size_t s = 1; s < grid.elements().size(); ++s) {
    auto& ce = *grid.elements()[s];
    for (int i = 0; i < ce.slots() + 10; ++i) {
      ce.submit(5e6, nullptr);
    }
  }
  BaselineSpec spec;
  spec.scheme = BaselineScheme::kKDualQueue;
  spec.k = 3;
  spec.home_site = 0;
  RedundantClient client(grid, spec, 20, 100.0);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 1e6);
  ASSERT_TRUE(client.done());
  // Home site is idle: every task starts instantly there.
  EXPECT_LT(client.mean_latency(), 1.0);
  // Remote lanes stayed behind local work the whole time.
  for (std::size_t s = 1; s < grid.elements().size(); ++s) {
    EXPECT_EQ(grid.elements()[s]->running(), grid.elements()[s]->slots());
  }
}

TEST(RedundantClient, RandomSchemeUsesDistinctSites) {
  sim::GridSimulation grid(small_grid());
  grid.warm_up(2000.0);
  BaselineSpec spec;
  spec.scheme = BaselineScheme::kKRandom;
  spec.k = 4;
  RedundantClient client(grid, spec, 30, 200.0);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 1e7,
                             [&client] { return client.done(); });
  ASSERT_TRUE(client.done());
  EXPECT_GE(client.mean_submissions(), 4.0);
}

TEST(RedundantClient, SafetyTimeoutRetriesLostRounds) {
  // All CEs 100% faulty for one grid: every round is lost, the safety
  // timeout must fire and re-round until the cap of this test's horizon.
  sim::GridConfig config = small_grid();
  for (auto& ce : config.elements) ce.fault_prob = 1.0;
  config.background.arrival_rate = 0.0;
  sim::GridSimulation grid(config);
  BaselineSpec spec;
  spec.k = 2;
  spec.safety_timeout = 100.0;
  RedundantClient client(grid, spec, 1, 50.0);
  client.start();
  grid.simulator().run_until(grid.simulator().now() + 1e4);
  EXPECT_FALSE(client.done());  // can never finish
  // ... but it kept trying: ~ horizon / safety_timeout rounds.
  EXPECT_GT(grid.metrics().jobs_dispatched, 50u);
}

TEST(RedundantClient, RejectsInvalidSpecs) {
  sim::GridSimulation grid(small_grid());
  BaselineSpec bad_k;
  bad_k.k = 0;
  EXPECT_THROW(RedundantClient(grid, bad_k, 5, 100.0),
               std::invalid_argument);
  BaselineSpec bad_home;
  bad_home.home_site = 99;
  EXPECT_THROW(RedundantClient(grid, bad_home, 5, 100.0),
               std::invalid_argument);
  BaselineSpec ok;
  EXPECT_THROW(RedundantClient(grid, ok, 0, 100.0), std::invalid_argument);
  EXPECT_THROW(RedundantClient(grid, ok, 5, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::sched

namespace gridsub::sim {
namespace {

TEST(ComputingElementLanes, RemoteLaneWaitsForLocalWork) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(3));
  int order = 0, local_started = 0, remote_started = 0;
  // Occupy the slot.
  ce.submit(100.0, nullptr);
  // Remote job enqueued first, local job second: local must still win.
  ce.submit(
      10.0, [&] { remote_started = ++order; },
      ComputingElement::Lane::kRemote);
  ce.submit(
      10.0, [&] { local_started = ++order; },
      ComputingElement::Lane::kLocal);
  EXPECT_EQ(ce.queue_length(ComputingElement::Lane::kLocal), 1u);
  EXPECT_EQ(ce.queue_length(ComputingElement::Lane::kRemote), 1u);
  sim.run();
  EXPECT_EQ(local_started, 1);
  EXPECT_EQ(remote_started, 2);
}

TEST(ComputingElementLanes, QueueLengthSumsBothLanes) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(3));
  ce.submit(100.0, nullptr);  // running
  ce.submit(1.0, nullptr, ComputingElement::Lane::kLocal);
  ce.submit(1.0, nullptr, ComputingElement::Lane::kRemote);
  ce.submit(1.0, nullptr, ComputingElement::Lane::kRemote);
  EXPECT_EQ(ce.queue_length(), 3u);
  EXPECT_DOUBLE_EQ(ce.load(), 4.0);
}

TEST(ComputingElementLanes, CancelWorksInRemoteLane) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(3));
  ce.submit(100.0, nullptr);
  int started = 0;
  const auto h = ce.submit(
      1.0, [&] { ++started; }, ComputingElement::Lane::kRemote);
  EXPECT_TRUE(ce.cancel(h));
  sim.run();
  EXPECT_EQ(started, 0);
}

}  // namespace
}  // namespace gridsub::sim
