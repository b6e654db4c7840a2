#include "sim/wms.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "sim/grid.hpp"
#include "sim/network.hpp"
#include "sim/strategy_client.hpp"
#include "stats/fit.hpp"
#include "stats/gamma.hpp"
#include "stats/gof.hpp"
#include "stats/summary.hpp"
#include "test_util.hpp"

// Counting replacements for the global allocation functions of this test
// binary, backed by malloc/free so ASan and TSan still see every block.
// The over-aligned forms keep the runtime's definitions; nothing on the
// job path is over-aligned.
namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_malloc_or_throw(std::size_t size) {
  if (void* block = counted_malloc(size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc_or_throw(size); }
void* operator new[](std::size_t size) {
  return counted_malloc_or_throw(size);
}
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size,
                     const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t /*size*/) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t /*size*/) noexcept {
  std::free(block);
}
void operator delete(void* block, const std::nothrow_t& /*tag*/) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t& /*tag*/) noexcept {
  std::free(block);
}

namespace gridsub::sim {
namespace {

struct WmsFixture {
  Simulator sim;
  GridMetrics metrics;
  std::vector<std::unique_ptr<ComputingElement>> ces;
  std::unique_ptr<WorkloadManager> wms;

  explicit WmsFixture(int n_ces, WmsConfig config = {}) {
    config.fault_prob = config.fault_prob;  // keep caller's value
    std::vector<ComputingElement*> raw;
    for (int i = 0; i < n_ces; ++i) {
      ces.push_back(std::make_unique<ComputingElement>(
          sim, "ce" + std::to_string(i), 4, 0.0, stats::Rng(100 + i),
          &metrics));
      raw.push_back(ces.back().get());
    }
    wms = std::make_unique<WorkloadManager>(sim, raw, config,
                                            stats::Rng(7), &metrics);
  }
};

WmsConfig reliable_config() {
  WmsConfig c;
  c.fault_prob = 0.0;
  c.network.hops = 2;
  c.network.hop_mean = 10.0;
  c.network.hop_shape = 4.0;
  return c;
}

TEST(Wms, JobsReachAComputingElementAndStart) {
  WmsFixture f(3, reliable_config());
  int started = 0;
  for (int i = 0; i < 10; ++i) {
    f.wms->submit(5.0, [&] { ++started; });
  }
  f.sim.run();
  EXPECT_EQ(started, 10);
  EXPECT_EQ(f.metrics.jobs_submitted, 10u);
  EXPECT_EQ(f.metrics.jobs_dispatched, 10u);
}

TEST(Wms, MatchmakingDelayIsPositive) {
  WmsFixture f(1, reliable_config());
  double start_time = -1.0;
  f.wms->submit(1.0, [&] { start_time = f.sim.now(); });
  f.sim.run();
  EXPECT_GT(start_time, 0.0);
  EXPECT_GT(f.metrics.total_matchmaking, 0.0);
}

TEST(Wms, PathDelayIsOneGammaOfTheSummedShape) {
  // Each job's matchmaking delay is one Gamma(hops * hop_shape,
  // hop_mean / hop_shape) draw: the law of the sum of the hops' iid
  // Gamma(hop_shape, hop_mean / hop_shape) delays, so the mean stays
  // hops * hop_mean and the variance hops * hop_mean^2 / hop_shape.
  // Checked on the egee_like network and on a total shape below 1, which
  // takes the sampler's boost branch. The bounds are DKW bands at
  // alpha = 1e-9 (twice the band against a hop-by-hop sample), the mean
  // within 1 % (>= 4 standard errors at shape 0.9) and the variance
  // within 5 % (>= 7), so no choice of seed flips the test.
  constexpr std::size_t kDraws = 200'000;
  NetworkConfig low_shape;
  low_shape.hops = 3;
  low_shape.hop_mean = 10.0;
  low_shape.hop_shape = 0.3;
  for (const NetworkConfig& config :
       {GridConfig::egee_like().wms.network, low_shape}) {
    const double scale = config.hop_mean / config.hop_shape;
    const stats::GammaDist path(config.hops * config.hop_shape, scale);
    SCOPED_TRACE(path.name());
    const NetworkModel network(config);
    const stats::GammaDist per_hop(config.hop_shape, scale);
    stats::Rng rng(20090611);
    std::vector<double> one_draw(kDraws);
    std::vector<double> hop_sum(kDraws, 0.0);
    for (double& x : one_draw) x = network.sample_path_delay(rng);
    for (double& x : hop_sum) {
      for (int h = 0; h < config.hops; ++h) x += per_hop.sample(rng);
    }
    const double eps = stats::dkw_epsilon(kDraws, 1e-9);
    EXPECT_LE(stats::ks_statistic(one_draw, path), eps);
    EXPECT_LE(stats::ks_two_sample(one_draw, hop_sum), 2.0 * eps);
    const double mean = config.hops * config.hop_mean;
    const double var =
        config.hops * config.hop_mean * config.hop_mean / config.hop_shape;
    EXPECT_NEAR(stats::mean(one_draw), mean, 0.01 * mean);
    EXPECT_NEAR(stats::variance(one_draw), var, 0.05 * var);
  }
}

TEST(Wms, CancelDuringMatchmakingStopsDispatch) {
  WmsFixture f(1, reliable_config());
  int started = 0;
  const auto ticket = f.wms->submit(1.0, [&] { ++started; });
  EXPECT_TRUE(f.wms->cancel(ticket));
  f.sim.run();
  EXPECT_EQ(started, 0);
  EXPECT_EQ(f.metrics.jobs_dispatched, 0u);
  EXPECT_EQ(f.metrics.jobs_canceled, 1u);
}

TEST(Wms, CancelAfterDispatchReachesTheCe) {
  WmsFixture f(1, reliable_config());
  int started = 0;
  // Fill all 4 slots with long jobs *first* (matchmaking delays are random,
  // so submitting five at once would not pin down which ticket queues).
  for (int i = 0; i < 4; ++i) f.wms->submit(10000.0, [&] { ++started; });
  f.sim.run_until(500.0);
  ASSERT_EQ(started, 4);
  // The fifth job must queue at the CE; cancel it there.
  int fifth_started = 0;
  const auto ticket = f.wms->submit(10000.0, [&] { ++fifth_started; });
  f.sim.schedule_at(1000.0, [&] { EXPECT_TRUE(f.wms->cancel(ticket)); });
  f.sim.run_until(2000.0);
  EXPECT_EQ(fifth_started, 0);  // the canceled job never started
}

TEST(Wms, FaultyChainLosesJobsSilently) {
  auto config = reliable_config();
  config.fault_prob = 1.0;
  WmsFixture f(2, config);
  int started = 0;
  for (int i = 0; i < 5; ++i) f.wms->submit(1.0, [&] { ++started; });
  f.sim.run();
  EXPECT_EQ(started, 0);
  EXPECT_EQ(f.metrics.jobs_faulted, 5u);
}

TEST(Wms, LeastLoadedSpreadsAcrossElements) {
  auto config = reliable_config();
  config.dispatch = WmsConfig::Dispatch::kLeastLoaded;
  config.info_refresh_period = 1.0;  // nearly fresh load info
  WmsFixture f(4, config);
  // Long jobs so load accumulates; 40 jobs over 4 CEs of 4 slots.
  for (int i = 0; i < 40; ++i) f.wms->submit(100000.0, nullptr);
  f.sim.run_until(50000.0);
  // Every CE should have received a fair share (no starvation).
  for (const auto& ce : f.ces) {
    EXPECT_GE(ce->running() + static_cast<int>(ce->queue_length()), 5);
  }
}

TEST(Wms, UniformRandomDispatchAlsoCoversAllElements) {
  auto config = reliable_config();
  config.dispatch = WmsConfig::Dispatch::kUniformRandom;
  WmsFixture f(4, config);
  for (int i = 0; i < 200; ++i) f.wms->submit(100000.0, nullptr);
  f.sim.run_until(10000.0);
  for (const auto& ce : f.ces) {
    EXPECT_GT(ce->running() + static_cast<int>(ce->queue_length()), 20);
  }
}

TEST(Wms, RejectsNegativeOrNanRuntimeAtSubmit) {
  // A bad runtime fails at the call: no ticket, no counter, no RNG draw,
  // rather than as a Simulator error one matchmaking delay later, inside
  // run_until().
  WmsFixture f(1, reliable_config());
  int started = 0;
  EXPECT_THROW(f.wms->submit(-5.0, [&] { ++started; }),
               std::invalid_argument);
  EXPECT_THROW(f.wms->submit(std::nan(""), [&] { ++started; }),
               std::invalid_argument);
  EXPECT_EQ(f.metrics.jobs_submitted, 0u);
  // The next valid job draws the same matchmaking delay as a fresh WMS's
  // first job, so the rejected calls consumed no randomness.
  f.wms->submit(1.0, [&] { ++started; });
  WmsFixture fresh(1, reliable_config());
  fresh.wms->submit(1.0, nullptr);
  EXPECT_EQ(f.metrics.total_matchmaking, fresh.metrics.total_matchmaking);
  EXPECT_EQ(f.metrics.jobs_submitted, 1u);
  f.sim.run();
  EXPECT_EQ(started, 1);
  // +inf stays legal, as in the Simulator.
  f.wms->submit(std::numeric_limits<double>::infinity(), nullptr);
  EXPECT_EQ(f.metrics.jobs_submitted, 2u);
}

TEST(Wms, CancelAfterStartOrTwiceReturnsFalse) {
  WmsFixture f(1, reliable_config());
  int started = 0;
  const auto ticket = f.wms->submit(1.0, [&] { ++started; });
  f.sim.run();
  ASSERT_EQ(started, 1);
  EXPECT_FALSE(f.wms->cancel(ticket));  // already started
  EXPECT_EQ(f.metrics.jobs_canceled, 0u);

  const auto second = f.wms->submit(1.0, [&] { ++started; });
  EXPECT_TRUE(f.wms->cancel(second));
  EXPECT_FALSE(f.wms->cancel(second));  // already canceled
  EXPECT_EQ(f.metrics.jobs_canceled, 1u);
  f.sim.run();
  EXPECT_EQ(started, 1);
}

TEST(Wms, StaleTicketCannotCancelTheJobReusingItsSlot) {
  WmsFixture f(1, reliable_config());
  int first = 0;
  int second = 0;
  const auto old_ticket = f.wms->submit(1.0, [&] { ++first; });
  f.sim.run();
  ASSERT_EQ(first, 1);
  const auto new_ticket = f.wms->submit(1.0, [&] { ++second; });
  // Same slot (low 32 bits), newer generation (high 32 bits).
  ASSERT_EQ(new_ticket & 0xFFFFFFFFu, old_ticket & 0xFFFFFFFFu);
  ASSERT_NE(new_ticket, old_ticket);
  EXPECT_FALSE(f.wms->cancel(old_ticket));
  EXPECT_EQ(f.metrics.jobs_canceled, 0u);
  f.sim.run();
  EXPECT_EQ(second, 1);
}

TEST(Wms, TicketSubmittedFromAStartCallbackCancelsCleanly) {
  // The first job starts synchronously inside its dispatch (the CE has a
  // free worker), and its callback submits a second job, which reuses the
  // first job's ticket slot. The dispatch must not then write the first
  // job's CE handle over the second job's matchmaking event: the cancel
  // must remove exactly that event and no other.
  auto config = reliable_config();
  config.info_refresh_period = 1e9;  // keep the refresh daemon out of it
  WmsFixture f(1, config);
  int first = 0;
  int second = 0;
  WorkloadManager::TicketId inner = 0;
  bool canceled = false;
  std::size_t pending_drop = 0;
  f.wms->submit(1.0, [&] {
    ++first;
    inner = f.wms->submit(1.0, [&] { ++second; });
    // Fires at this same time, once the enclosing dispatch has returned.
    f.sim.schedule_in(0.0, [&] {
      const std::size_t pending = f.sim.pending_events();
      canceled = f.wms->cancel(inner);
      pending_drop = pending - f.sim.pending_events();
    });
  });
  f.sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_TRUE(canceled);
  EXPECT_EQ(pending_drop, 1u);
  EXPECT_EQ(second, 0);
  // Ran: the first job's matchmaking, the cancel above, its completion.
  // The second job's matchmaking never did.
  EXPECT_EQ(f.sim.processed_events(), 3u);
  EXPECT_EQ(f.metrics.jobs_dispatched, 1u);
  EXPECT_EQ(f.metrics.jobs_canceled, 1u);
  EXPECT_EQ(f.metrics.jobs_completed, 1u);
}

TEST(Wms, CallbacksAreReleasedExactlyOnce) {
  // Every callback handed to the WMS and to the simulator captures a
  // probe. Across fire, cancel in matchmaking, cancel while queued at a
  // CE, a job lost in the chain then canceled, and teardown with
  // callbacks still held, each copy is destroyed once and each body runs
  // at most once.
  testutil::ProbeCounts counts;
  std::array<int, 15> runs{};
  const auto probed = [&counts, &runs](std::size_t i) {
    return [run = &runs[i], probe = testutil::CallbackProbe(&counts)] {
      ++*run;
    };
  };
  {
    WmsFixture f(1, reliable_config());
    for (std::size_t i = 0; i < 4; ++i) f.wms->submit(1e5, probed(i));
    f.sim.run_until(500.0);  // 0-3 start and fill the CE's four workers
    EXPECT_TRUE(f.wms->cancel(f.wms->submit(1.0, probed(4))));
    const auto queued = f.wms->submit(1.0, probed(5));
    f.sim.run_until(1000.0);
    ASSERT_EQ(f.metrics.jobs_dispatched, 5u);  // 5 waits at the CE
    EXPECT_TRUE(f.wms->cancel(queued));
    f.wms->submit(1.0, probed(6));  // queued at the CE at teardown
    f.sim.run_until(1500.0);
    ASSERT_EQ(f.metrics.jobs_dispatched, 6u);
    f.wms->submit(1.0, probed(7));  // in matchmaking at teardown
    EXPECT_TRUE(f.sim.cancel(f.sim.schedule_in(1.0, probed(8))));
    f.sim.schedule_in(1.0, probed(9));
    f.sim.schedule_at(f.sim.now() + 1.0, probed(10));
    f.sim.schedule_daemon_in(1e9, probed(11));  // pending at teardown
    f.sim.schedule_daemon_in(1e9, probed(12));  // pending at teardown
    f.sim.run_until(f.sim.now() + 1.0);

    auto lossy = reliable_config();
    lossy.fault_prob = 1.0;
    WmsFixture g(1, lossy);
    EXPECT_TRUE(g.wms->cancel(g.wms->submit(1.0, probed(13))));
    g.wms->submit(1.0, probed(14));  // lost and still held at teardown
  }
  EXPECT_EQ(counts.constructed, counts.destroyed);
  EXPECT_EQ(runs, (std::array<int, 15>{1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0,
                                       0, 0, 0}));
}

StrategySpec mixed_spec(std::size_t i) {
  StrategySpec spec;
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

TEST(Wms, JobPathAllocatesNothingPerJob) {
  // An egee_like grid with background load and 300 mixed strategy
  // clients. After two simulated days every container on the job path
  // (event and ticket slots, the heap, CE job slots, client buffers) has
  // reached its working size, so the next two days may allocate only for
  // amortized growth, never per job or per event.
  constexpr double kDay = 86400.0;
  GridSimulation grid(GridConfig::egee_like());
  std::deque<StrategyClient> clients;
  for (std::size_t i = 0; i < 300; ++i) {
    clients.emplace_back(grid, mixed_spec(i), /*n_tasks=*/1'000'000, 1.0,
                         /*record_outcomes=*/false);
  }
  for (auto& client : clients) client.start();
  grid.simulator().run_until(2.0 * kDay);

  const std::uint64_t jobs_before = grid.metrics().jobs_submitted;
  const std::uint64_t allocs_before = g_heap_allocations.load();
  grid.simulator().run_until(4.0 * kDay);
  const std::uint64_t allocations = g_heap_allocations.load() - allocs_before;
  const std::uint64_t jobs = grid.metrics().jobs_submitted - jobs_before;

  ASSERT_GT(jobs, 50'000u);
  EXPECT_LE(allocations * 100, jobs)
      << allocations << " heap allocations over " << jobs << " jobs";
}

TEST(Wms, RejectsEmptyElementList) {
  Simulator sim;
  EXPECT_THROW(
      WorkloadManager(sim, {}, reliable_config(), stats::Rng(1), nullptr),
      std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::sim
