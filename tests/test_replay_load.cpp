#include "sim/replay_load.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "sim/grid.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::sim {
namespace {

GridConfig small_grid_config(std::uint64_t seed = 99) {
  GridConfig config;
  config.elements = {{8, 0.0}, {8, 0.0}};
  config.background.arrival_rate = 0.0;  // replay provides all load
  config.wms.fault_prob = 0.0;
  config.seed = seed;
  return config;
}

traces::Workload even_workload(std::size_t n = 10, double gap = 100.0) {
  traces::Workload w("even");
  for (std::size_t i = 0; i < n; ++i) {
    w.add_job(static_cast<double>(i) * gap, 1.0);
  }
  return w;
}

// The replay reads the caller's workload in place, so binding a temporary
// (which would dangle once the statement ends) must not compile, while a
// named workload still does.
template <typename W>
constexpr bool kAttachable = requires(GridSimulation& g, W&& w) {
  g.attach_replay(static_cast<W&&>(w));
};
static_assert(!kAttachable<traces::Workload>);
static_assert(kAttachable<const traces::Workload&>);

TEST(ReplayLoad, EmitsEveryJobExactlyOnce) {
  const auto workload = even_workload();
  GridSimulation grid(small_grid_config());
  auto& replay = grid.attach_replay(workload);
  grid.simulator().run();
  EXPECT_EQ(replay.emitted(), 10u);
  EXPECT_EQ(replay.consumed(), 10u);
  EXPECT_TRUE(replay.exhausted());
  EXPECT_EQ(grid.metrics().jobs_submitted, 10u);
}

TEST(ReplayLoad, DeterministicUnderFixedSeed) {
  traces::ScenarioConfig scen;
  scen.base_rate = 0.02;
  scen.duration = 20000.0;
  scen.seed = 5;
  const auto workload = traces::make_scenario("burst-week", scen);

  auto run_once = [&]() {
    GridSimulation grid(small_grid_config(123));
    ReplayLoadConfig config;
    config.load_multiplier = 1.5;  // exercises the RNG path too
    auto& replay = grid.attach_replay(workload, config);
    grid.simulator().run_until(scen.duration);
    return std::tuple{replay.emitted(), grid.metrics().jobs_submitted,
                      grid.metrics().jobs_started,
                      grid.simulator().processed_events()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(ReplayLoad, TimeScaleCompressesTheTimeline) {
  // Jobs at 0,100,...,900. At time_scale 2 every arrival lands by t=450.
  const auto workload = even_workload();
  GridSimulation fast_grid(small_grid_config());
  ReplayLoadConfig fast;
  fast.time_scale = 2.0;
  auto& fast_replay = fast_grid.attach_replay(workload, fast);
  fast_grid.simulator().run_until(460.0);
  EXPECT_EQ(fast_replay.emitted(), 10u);

  GridSimulation slow_grid(small_grid_config());
  auto& slow_replay = slow_grid.attach_replay(workload);
  slow_grid.simulator().run_until(460.0);
  EXPECT_EQ(slow_replay.emitted(), 5u);
}

TEST(ReplayLoad, LoadMultiplierScalesSubmissions) {
  const auto workload = even_workload();
  GridSimulation doubled(small_grid_config());
  ReplayLoadConfig x2;
  x2.load_multiplier = 2.0;
  auto& r2 = doubled.attach_replay(workload, x2);
  doubled.simulator().run();
  EXPECT_EQ(r2.emitted(), 20u);
  EXPECT_EQ(r2.consumed(), 10u);

  GridSimulation fractional(small_grid_config());
  ReplayLoadConfig x15;
  x15.load_multiplier = 1.5;
  const auto hundred = even_workload(100);
  auto& r15 = fractional.attach_replay(hundred, x15);
  fractional.simulator().run();
  EXPECT_GT(r15.emitted(), 100u);
  EXPECT_LT(r15.emitted(), 200u);

  GridSimulation silent(small_grid_config());
  ReplayLoadConfig x0;
  x0.load_multiplier = 0.0;
  auto& r0 = silent.attach_replay(workload, x0);
  silent.simulator().run();
  EXPECT_EQ(r0.emitted(), 0u);
  EXPECT_EQ(r0.consumed(), 10u);
}

TEST(ReplayLoad, LoopRestartsFromTheTop) {
  const auto workload = even_workload();
  GridSimulation grid(small_grid_config());
  ReplayLoadConfig config;
  config.loop = true;
  auto& replay = grid.attach_replay(workload, config);
  // Each pass spans 900 s + a 90 s seam; 3 passes fit in 3100 s.
  grid.simulator().run_until(3100.0);
  EXPECT_GT(replay.consumed(), 20u);
  EXPECT_FALSE(replay.exhausted());
  replay.stop();
}

TEST(ReplayLoad, LoopingDegenerateWorkloadStillAdvancesTime) {
  // Every arrival at t=0 (duration 0): looping must not reschedule forever
  // at one sim instant — run_until would otherwise never return.
  traces::Workload w("instant");
  w.add_job(0.0, 1.0);
  GridSimulation grid(small_grid_config());
  ReplayLoadConfig config;
  config.loop = true;
  auto& replay = grid.attach_replay(w, config);
  grid.simulator().run_until(10.5);
  EXPECT_EQ(replay.consumed(), 11u);  // one per 1 s seam, t=0..10
  replay.stop();
}

TEST(ReplayLoad, StopHaltsEmission) {
  const auto workload = even_workload();
  GridSimulation grid(small_grid_config());
  auto& replay = grid.attach_replay(workload);
  grid.simulator().run_until(250.0);
  const auto before = replay.emitted();
  EXPECT_EQ(before, 3u);
  replay.stop();
  grid.simulator().run();
  EXPECT_EQ(replay.emitted(), before);
  EXPECT_FALSE(replay.exhausted());
}

TEST(ReplayLoad, RejectsBadConfig) {
  const auto workload = even_workload();
  GridSimulation grid(small_grid_config());
  ReplayLoadConfig bad_scale;
  bad_scale.time_scale = 0.0;
  EXPECT_THROW(grid.attach_replay(workload, bad_scale),
               std::invalid_argument);
  ReplayLoadConfig bad_mult;
  bad_mult.load_multiplier = -1.0;
  EXPECT_THROW(grid.attach_replay(workload, bad_mult),
               std::invalid_argument);
  const traces::Workload empty("empty");
  EXPECT_THROW(grid.attach_replay(empty), std::invalid_argument);
}

TEST(ReplayLoad, UnsortedWorkloadIsReplayedInTimeOrder) {
  // The replay reads the workload in place, so an unsorted one is
  // rejected; once sorted it is replayed in time order.
  traces::Workload w("shuffled");
  w.add_job(500.0, 1.0);
  w.add_job(0.0, 1.0);
  w.add_job(250.0, 1.0);
  GridSimulation grid(small_grid_config());
  EXPECT_THROW(grid.attach_replay(w), std::invalid_argument);
  EXPECT_EQ(grid.metrics().jobs_submitted, 0u);
  w.sort_by_arrival();
  auto& replay = grid.attach_replay(w);
  grid.simulator().run_until(300.0);
  EXPECT_EQ(replay.emitted(), 2u);
  grid.simulator().run();
  EXPECT_EQ(replay.emitted(), 3u);
}

TEST(ReplayLoad, TiedArrivalsKeepTheirInputOrder) {
  // Jobs with the same arrival reach the WMS in input order, whether the
  // workload comes sorted or is stable-sorted by sort_by_arrival() first.
  // The WMS draws matchmaking delays in submission order, so on a one-slot
  // element the total queue wait tells which runtime was submitted first.
  const auto queue_wait = [](const traces::Workload& w) {
    GridConfig config = small_grid_config();
    config.elements = {{1, 0.0}};
    GridSimulation grid(config);
    grid.attach_replay(w);
    grid.simulator().run();
    EXPECT_EQ(grid.metrics().jobs_completed, 3u);
    return grid.metrics().total_queue_wait;
  };
  traces::Workload short_first("short-first");  // sorted as given
  short_first.add_job(0.0, 10.0);
  short_first.add_job(0.0, 1000.0);
  short_first.add_job(500.0, 1.0);
  traces::Workload shuffled("shuffled");  // sorts to short_first
  shuffled.add_job(500.0, 1.0);
  shuffled.add_job(0.0, 10.0);
  shuffled.add_job(0.0, 1000.0);
  traces::Workload long_first("long-first");
  long_first.add_job(0.0, 1000.0);
  long_first.add_job(0.0, 10.0);
  long_first.add_job(500.0, 1.0);
  shuffled.sort_by_arrival();
  EXPECT_EQ(queue_wait(shuffled), queue_wait(short_first));
  EXPECT_NE(queue_wait(long_first), queue_wait(short_first));
}

// The stationary Poisson source shares the bug class the replay subsystem
// was audited against: runtime_mean <= 0 used to silently poison the
// log-normal's mu with log(<=0) instead of failing fast.
TEST(BackgroundLoadValidation, RejectsNonPositiveRuntimeMean) {
  auto config = small_grid_config();
  config.background.arrival_rate = 0.1;
  config.background.runtime_mean = 0.0;
  EXPECT_THROW(GridSimulation{config}, std::invalid_argument);
  config.background.runtime_mean = -5.0;
  EXPECT_THROW(GridSimulation{config}, std::invalid_argument);
}

TEST(BackgroundLoadValidation, RejectsNegativeSigmaLog) {
  auto config = small_grid_config();
  config.background.runtime_sigma_log = -0.1;
  EXPECT_THROW(GridSimulation{config}, std::invalid_argument);
}

TEST(BackgroundLoadValidation, AcceptsZeroSigmaLog) {
  // sigma_log == 0 means deterministic runtimes; the log-normal factory
  // floors it instead of crashing in the LogNormal constructor.
  auto config = small_grid_config();
  config.background.arrival_rate = 0.5;
  config.background.runtime_mean = 100.0;
  config.background.runtime_sigma_log = 0.0;
  GridSimulation grid(config);
  grid.warm_up(50.0);
  EXPECT_GT(grid.background().emitted(), 0u);
}

}  // namespace
}  // namespace gridsub::sim
