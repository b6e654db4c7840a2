// Forced-contention stress suite for every concurrent layer — the
// dynamic half of the correctness wall (docs/correctness.md).
//
// These tests are written to *collide*: many threads hammering the same
// pool, campaign cells that complete far out of claim order while their
// progress snapshots race for the runner's lock, and MC block write-backs
// across an 8-wide pool. Under the tsan preset (cmake --preset tsan)
// ThreadSanitizer checks every interleaving they reach; under the normal
// presets they still assert the user-visible invariants (byte-identical
// output, monotone progress, bit-identical MC folds).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"
#include "exp/campaign.hpp"
#include "mc/mc_engine.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

namespace gridsub {
namespace {

// --------------------------------------------------------------------------
// par::ThreadPool: concurrent submit + claim gating
// --------------------------------------------------------------------------

TEST(ConcurrencyStress, ThreadPoolConcurrentSubmitters) {
  par::ThreadPool pool(4);
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kTasksEach = 64;

  // GUARDED_BY is a member annotation, so the guarded counter lives in a
  // small struct rather than as a bare local.
  struct Counter {
    core::Mutex mu;
    std::size_t value GRIDSUB_GUARDED_BY(mu) = 0;
  } counter;
  std::atomic<std::size_t> atomic_count{0};

  // Several external threads race ThreadPool::submit while the workers
  // race the queue from the other side.
  std::vector<std::thread> submitters;
  std::vector<std::future<void>> futures[kSubmitters];
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (std::size_t t = 0; t < kTasksEach; ++t) {
        futures[s].push_back(pool.submit([&] {
          atomic_count.fetch_add(1, std::memory_order_relaxed);
          const core::MutexLock lock(counter.mu);
          ++counter.value;
        }));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) f.get();
  }

  EXPECT_EQ(atomic_count.load(), kSubmitters * kTasksEach);
  const core::MutexLock lock(counter.mu);
  EXPECT_EQ(counter.value, kSubmitters * kTasksEach);
}

TEST(ConcurrencyStress, ThreadPoolDrainsQueueOnDestruction) {
  std::atomic<std::size_t> ran{0};
  constexpr std::size_t kTasks = 200;
  {
    par::ThreadPool pool(3);
    for (std::size_t t = 0; t < kTasks; ++t) {
      // Futures intentionally dropped: destruction must still run every
      // queued task (the pool drains, then joins).
      (void)pool.submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(ran.load(), kTasks);
}

// --------------------------------------------------------------------------
// Campaign runner: dynamic claims and progress under contention
// --------------------------------------------------------------------------

exp::CampaignAxes stress_axes(std::size_t scenarios, std::size_t strategies,
                              std::size_t reps) {
  exp::CampaignAxes axes;
  axes.name = "stress";
  for (std::size_t i = 0; i < scenarios; ++i) {
    axes.scenario_labels.push_back("sc" + std::to_string(i));
  }
  for (std::size_t i = 0; i < strategies; ++i) {
    axes.strategy_labels.push_back("st" + std::to_string(i));
  }
  axes.replications = reps;
  axes.root_seed = 777;
  return axes;
}

/// Deterministic in the seed, with a seed-dependent amount of wasted
/// work so cells complete far out of claim order.
exp::CellMetrics jittered_cell(const exp::CellContext& ctx) {
  const std::uint64_t spin = ctx.seed % 2048;
  volatile double sink_value = 0.0;
  for (std::uint64_t i = 0; i < spin * 32; ++i) {
    sink_value = sink_value + static_cast<double>(i);
  }
  if ((ctx.seed & 1u) != 0u) std::this_thread::yield();
  return {{"value", static_cast<double>(ctx.seed % 100000) / 7.0},
          {"flat", static_cast<double>(ctx.flat)}};
}

std::string json_of(const exp::CampaignResult& result) {
  std::ostringstream os;
  result.write_json(os);
  return os.str();
}

TEST(ConcurrencyStress, CampaignJsonByteIdenticalAcrossWidths) {
  const exp::CampaignAxes axes = stress_axes(3, 2, 6);
  par::ThreadPool narrow(1);
  par::ThreadPool wide(4);

  exp::CampaignOptions serial_options;
  serial_options.pool = &narrow;
  exp::CampaignOptions contended_options;
  contended_options.pool = &wide;
  // Every worker reports each finished cell; the runner's progress lock
  // must hand them over one at a time, in increasing order.
  std::size_t last_completed = 0;
  bool monotone = true;
  contended_options.on_progress = [&](const exp::CampaignProgress& p) {
    monotone = monotone && p.completed == last_completed + 1;
    last_completed = p.completed;
  };

  const std::string serial =
      json_of(exp::CampaignRunner(serial_options).run(axes, jittered_cell));
  const std::string contended = json_of(
      exp::CampaignRunner(contended_options).run(axes, jittered_cell));
  EXPECT_EQ(serial, contended);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(last_completed, axes.cell_count());
}

// --------------------------------------------------------------------------
// MC engine: block write-back across pool widths
// --------------------------------------------------------------------------

TEST(ConcurrencyStress, McBlockWriteBackBitIdenticalAcrossWidths) {
  const auto model =
      testutil::discretize(testutil::make_heavy_model(0.05, 4000.0), 1.0);
  par::ThreadPool narrow(1);
  par::ThreadPool wide(8);

  mc::McOptions serial_options;
  serial_options.replications = 20000;  // ~5 blocks: real write-back traffic
  serial_options.seed = 4242;
  serial_options.pool = &narrow;
  mc::McOptions contended_options = serial_options;
  contended_options.pool = &wide;

  const mc::McResult serial =
      mc::simulate_delayed(model, 400.0, 700.0, serial_options);
  const mc::McResult contended =
      mc::simulate_delayed(model, 400.0, 700.0, contended_options);
  EXPECT_EQ(serial.replications, contended.replications);
  EXPECT_DOUBLE_EQ(serial.mean_latency, contended.mean_latency);
  EXPECT_DOUBLE_EQ(serial.std_latency, contended.std_latency);
  EXPECT_DOUBLE_EQ(serial.mean_submissions, contended.mean_submissions);
  EXPECT_DOUBLE_EQ(serial.mean_parallel_ratio,
                   contended.mean_parallel_ratio);
}

}  // namespace
}  // namespace gridsub
