// Determinism wall for the advisor service: the same replayed workload
// must produce a byte-identical final snapshot JSON no matter how many
// ingest threads ran (1/2/8) and no matter whether the background
// refresher was swapping snapshots along the way. This is the contract
// that makes the serving layer debuggable: any divergence between two
// runs is a real state change, never scheduler noise.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "serve/advisor.hpp"
#include "serve/replay_feed.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::serve {
namespace {

online::OnlinePlannerConfig fast_planner() {
  online::OnlinePlannerConfig c;
  c.window = 80;
  c.min_observations = 30;
  c.refit_interval = 40;
  c.model_step = 50.0;
  c.timeout = 4000.0;
  return c;
}

AdvisorConfig fast_config() {
  AdvisorConfig c;
  c.planner = fast_planner();
  c.refresh_pending = 16;
  return c;
}

/// A two-hour diurnal slice: ~1.4k jobs over the replay feed's synthetic
/// 24-user population, i.e. ~60 observations per key — enough for every
/// key to fit and re-fit at the fast planner settings.
const traces::Workload& workload() {
  static const traces::Workload w = [] {
    traces::ScenarioConfig scenario;
    scenario.duration = 7200.0;
    scenario.base_rate = 0.2;
    scenario.runtime_mean = 600.0;
    return traces::make_scenario("diurnal-week", scenario);
  }();
  return w;
}

struct ReplayResult {
  std::string json;
  ReplayFeedReport report;
  AdvisorStats stats;
};

ReplayResult run_replay(std::size_t ingest_threads,
                        bool background_refresher) {
  AdvisorService service(fast_config());
  ReplayFeedConfig feed;
  feed.ingest_threads = ingest_threads;
  if (background_refresher) {
    service.start_refresher();
    // The worker that owns the middle job holds it until the refresher
    // has published once, so a swap lands mid-ingest whatever the
    // schedule. The refresher must wake: by then that worker alone has
    // ingested far more than refresh_pending observations (a synthetic
    // key recurs every 24 jobs). The held job is ingested after that
    // swap, so at least one more swap follows. The wait is bounded: a
    // refresher that never swaps fails the swap count instead of hanging
    // the test.
    const std::uint64_t middle = workload().size() / 2;
    feed.fault_hook = [&service, middle](std::size_t /*shard*/,
                                         std::uint64_t job_index) {
      if (job_index != middle) return;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (service.stats().swaps < 1 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
  }
  ReplayResult result;
  result.report = replay_feed(service, workload(), feed);

  service.stop_refresher();
  service.refresh_now();
  result.stats = service.stats();
  std::ostringstream os;
  service.dump_json(os);
  result.json = os.str();
  return result;
}

TEST(AdvisorDeterminism, ByteIdenticalSnapshotAtOneTwoEightIngestThreads) {
  const ReplayResult one = run_replay(1, /*background_refresher=*/true);
  const ReplayResult two = run_replay(2, /*background_refresher=*/true);
  const ReplayResult eight = run_replay(8, /*background_refresher=*/true);

  ASSERT_FALSE(one.json.empty());
  // The run is only a meaningful witness if keys actually became ready.
  EXPECT_NE(one.json.find("\"ready\": true"), std::string::npos);
  EXPECT_EQ(one.json, two.json);
  EXPECT_EQ(one.json, eight.json);
}

TEST(AdvisorDeterminism, BackgroundRefresherDoesNotChangeTheFinalSnapshot) {
  const ReplayResult manual = run_replay(8, /*background_refresher=*/false);
  const ReplayResult live = run_replay(8, /*background_refresher=*/true);

  // The live run swapped while ingestion was still in flight (run_replay
  // holds one worker until it does); the manual run published exactly
  // once at the end. Same final bytes either way.
  EXPECT_EQ(manual.stats.swaps, 1u);
  EXPECT_GT(live.stats.swaps, 1u);
  EXPECT_EQ(manual.json, live.json);
}

TEST(AdvisorDeterminism, FeedAccountingMatchesAtEveryThreadCount) {
  const ReplayResult one = run_replay(1, /*background_refresher=*/true);
  const ReplayResult eight = run_replay(8, /*background_refresher=*/true);

  EXPECT_EQ(one.report.jobs, workload().jobs().size());
  EXPECT_EQ(one.report.jobs, eight.report.jobs);
  EXPECT_EQ(one.report.completed, eight.report.completed);
  EXPECT_EQ(one.report.outliers, eight.report.outliers);
  EXPECT_EQ(one.report.keys, eight.report.keys);
  EXPECT_EQ(one.stats.observations, eight.stats.observations);
  EXPECT_EQ(one.stats.keys, eight.stats.keys);

  // Every job lands in exactly one shard.
  const std::uint64_t sharded =
      std::accumulate(eight.report.per_thread.begin(),
                      eight.report.per_thread.end(), std::uint64_t{0});
  EXPECT_EQ(sharded, eight.report.completed + eight.report.outliers);
  EXPECT_EQ(eight.report.per_thread.size(), 8u);
}

}  // namespace
}  // namespace gridsub::serve
