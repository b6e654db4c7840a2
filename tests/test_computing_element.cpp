#include "sim/computing_element.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "test_util.hpp"

namespace gridsub::sim {
namespace {

TEST(ComputingElement, RunsJobsUpToSlotCount) {
  Simulator sim;
  GridMetrics metrics;
  ComputingElement ce(sim, "ce", 2, 0.0, stats::Rng(1), &metrics);
  std::vector<double> starts;
  for (int i = 0; i < 4; ++i) {
    ce.submit(100.0, [&] { starts.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(starts.size(), 4u);
  // Two start immediately, the next two when slots free at t = 100.
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  EXPECT_DOUBLE_EQ(starts[1], 0.0);
  EXPECT_DOUBLE_EQ(starts[2], 100.0);
  EXPECT_DOUBLE_EQ(starts[3], 100.0);
  EXPECT_EQ(metrics.jobs_started, 4u);
  EXPECT_EQ(metrics.jobs_completed, 4u);
}

TEST(ComputingElement, FifoOrderWithinQueue) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    ce.submit(10.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ComputingElement, CancelQueuedJobNeverStarts) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
  int started = 0;
  ce.submit(50.0, [&] { ++started; });
  const auto h = ce.submit(50.0, [&] { ++started; });
  EXPECT_TRUE(ce.cancel(h));
  sim.run();
  EXPECT_EQ(started, 1);
}

TEST(ComputingElement, CancelRunningJobFreesSlot) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
  std::vector<double> starts;
  const auto h = ce.submit(1000.0, [&] { starts.push_back(sim.now()); });
  ce.submit(10.0, [&] { starts.push_back(sim.now()); });
  sim.schedule_at(100.0, [&] { EXPECT_TRUE(ce.cancel(h)); });
  sim.run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  EXPECT_DOUBLE_EQ(starts[1], 100.0);  // starts when the cancel frees it
}

TEST(ComputingElement, CancelUnknownHandleReturnsFalse) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
  EXPECT_FALSE(ce.cancel(42));
}

TEST(ComputingElement, FaultedJobsVanishSilently) {
  Simulator sim;
  GridMetrics metrics;
  ComputingElement ce(sim, "ce", 4, 1.0, stats::Rng(1), &metrics);
  int started = 0;
  ce.submit(10.0, [&] { ++started; });
  sim.run();
  EXPECT_EQ(started, 0);
  EXPECT_EQ(metrics.jobs_faulted, 1u);
}

TEST(ComputingElement, LoadReflectsQueueAndRunning) {
  Simulator sim;
  ComputingElement ce(sim, "ce", 2, 0.0, stats::Rng(1));
  EXPECT_DOUBLE_EQ(ce.load(), 0.0);
  ce.submit(100.0, nullptr);
  ce.submit(100.0, nullptr);
  ce.submit(100.0, nullptr);  // queued
  EXPECT_DOUBLE_EQ(ce.load(), 1.5);
  EXPECT_EQ(ce.running(), 2);
  EXPECT_EQ(ce.queue_length(), 1u);
  sim.run();
  EXPECT_DOUBLE_EQ(ce.load(), 0.0);
}

TEST(ComputingElement, QueueWaitIsAccounted) {
  Simulator sim;
  GridMetrics metrics;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1), &metrics);
  ce.submit(100.0, nullptr);
  ce.submit(10.0, nullptr);  // waits 100 s
  sim.run();
  EXPECT_DOUBLE_EQ(metrics.total_queue_wait, 100.0);
}

TEST(ComputingElement, StaleHandleOnRecycledSlotReturnsFalse) {
  // Handles are (generation, slot index); after a job finishes or is
  // canceled its slot is recycled, and the old handle must go stale
  // instead of resolving to the new tenant.
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
  const auto a = ce.submit(10.0, nullptr);
  sim.run();                    // a completed; slot free
  EXPECT_FALSE(ce.cancel(a));   // finished long ago
  int started = 0;
  ce.submit(1e6, nullptr);      // occupy the worker
  const auto b = ce.submit(10.0, [&] { ++started; });  // reuses a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(ce.cancel(a));   // stale: must NOT cancel b
  EXPECT_TRUE(ce.cancel(b));
  EXPECT_FALSE(ce.cancel(b));   // double-cancel reports false
}

TEST(ComputingElement, FaultedHandleNeverResolves) {
  // A silently-faulted submission returns a handle that maps to no slot:
  // cancel() must report false now and forever, even after many real
  // submissions recycle storage.
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 1.0, stats::Rng(1));  // always faults
  const auto ghost = ce.submit(10.0, nullptr);
  EXPECT_FALSE(ce.cancel(ghost));
  Simulator sim2;
  ComputingElement ce2(sim2, "ce2", 1, 0.0, stats::Rng(1));
  for (int i = 0; i < 100; ++i) ce2.cancel(ce2.submit(1.0, nullptr));
  EXPECT_FALSE(ce2.cancel(ghost));
}

TEST(ComputingElement, CanceledQueuedJobStillCountsUntilDrain) {
  // Historical (deque-era) semantics the WMS load ranking depends on: a
  // job canceled while queued keeps inflating queue_length() until the
  // queue would have drained past it — here, never, because the worker
  // is pinned — and drains as soon as a slot frees.
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
  const auto pin = ce.submit(1000.0, nullptr);  // running
  const auto h1 = ce.submit(10.0, nullptr);
  const auto h2 = ce.submit(10.0, nullptr);
  EXPECT_EQ(ce.queue_length(), 2u);
  EXPECT_TRUE(ce.cancel(h1));
  EXPECT_TRUE(ce.cancel(h2));
  EXPECT_EQ(ce.queue_length(), 2u);  // ghosts still counted
  EXPECT_DOUBLE_EQ(ce.load(), 3.0);
  EXPECT_TRUE(ce.cancel(pin));  // frees the worker: lane drains the ghosts
  EXPECT_EQ(ce.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(ce.load(), 0.0);
}

TEST(ComputingElement, GhostDrainPreservesFifoAndInterleaving) {
  // Cancel every other queued job under a pinned worker, then free it:
  // survivors must start in submission order and the ghosts must vanish
  // from queue_length() exactly when the lane drains.
  Simulator sim;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
  ce.submit(50.0, nullptr);  // running until t=50
  std::vector<int> order;
  std::vector<ComputingElement::JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(ce.submit(1.0, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 8; i += 2) EXPECT_TRUE(ce.cancel(handles[i]));
  EXPECT_EQ(ce.queue_length(), 8u);  // 4 live + 4 ghosts
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7}));
  EXPECT_EQ(ce.queue_length(), 0u);
}

TEST(ComputingElement, RejectsNanRuntimeBeforeTouchingState) {
  // A NaN runtime must fail at the call, before any state moves: a job
  // started first would throw only when its completion is scheduled,
  // leaving a worker occupied for good.
  Simulator sim;
  GridMetrics metrics;
  ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1), &metrics);
  int started = 0;
  EXPECT_THROW(ce.submit(std::nan(""), [&] { ++started; }),
               std::invalid_argument);
  EXPECT_THROW(ce.submit(-1.0, [&] { ++started; }), std::invalid_argument);
  EXPECT_EQ(started, 0);
  EXPECT_EQ(ce.running(), 0);
  EXPECT_EQ(ce.queue_length(), 0u);
  EXPECT_EQ(metrics.jobs_dispatched, 0u);
  ce.submit(10.0, [&] { ++started; });
  EXPECT_EQ(started, 1);
  EXPECT_EQ(ce.running(), 1);
  sim.run();
  EXPECT_EQ(ce.running(), 0);
  // +inf stays legal: the job starts and simply never completes.
  ce.submit(std::numeric_limits<double>::infinity(), [&] { ++started; });
  EXPECT_EQ(started, 2);
  EXPECT_EQ(ce.running(), 1);
}

/// Heap-stored in SmallFn (over its inline buffer), so the lifetime test
/// covers the fallback path too.
struct BigProbedCallback {
  int* runs;
  testutil::CallbackProbe probe;
  std::array<double, 8> padding{};
  void operator()() const { ++*runs; }
};
static_assert(!SmallFn::stores_inline<BigProbedCallback>());

TEST(ComputingElement, CallbacksAreReleasedExactlyOnce) {
  // Every start callback captures a probe. Across fire, cancel while
  // queued, cancel after start, a silently faulted submission and CE
  // teardown with callbacks still queued, each copy is destroyed once and
  // each body runs at most once.
  testutil::ProbeCounts counts;
  std::array<int, 7> runs{};
  const auto probed = [&counts, &runs](std::size_t i) {
    return [run = &runs[i], probe = testutil::CallbackProbe(&counts)] {
      ++*run;
    };
  };
  {
    Simulator sim;
    ComputingElement ce(sim, "ce", 1, 0.0, stats::Rng(1));
    const auto running = ce.submit(100.0, probed(0));  // fires at once
    const auto queued = ce.submit(10.0, probed(1));
    ce.submit(10.0, BigProbedCallback{&runs[2],
                                      testutil::CallbackProbe(&counts)});
    EXPECT_TRUE(ce.cancel(queued));     // canceled while queued
    EXPECT_TRUE(ce.cancel(running));    // frees the worker: 2 fires
    EXPECT_FALSE(ce.cancel(running));
    ce.submit(1e6, probed(3));          // queued behind 2 at teardown
    ce.submit(1e6, BigProbedCallback{&runs[4],
                                     testutil::CallbackProbe(&counts)});
    sim.run_until(50.0);  // 2 completes, 3 starts; 4 stays queued

    ComputingElement faulty(sim, "faulty", 1, 1.0, stats::Rng(2));
    EXPECT_FALSE(faulty.cancel(faulty.submit(1.0, probed(5))));
    faulty.submit(1.0, probed(6));
  }
  EXPECT_EQ(counts.constructed, counts.destroyed);
  EXPECT_EQ(runs, (std::array<int, 7>{1, 0, 1, 1, 0, 0, 0}));
}

TEST(ComputingElement, RejectsBadConstruction) {
  Simulator sim;
  EXPECT_THROW(ComputingElement(sim, "x", 0, 0.0, stats::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(ComputingElement(sim, "x", 1, 1.5, stats::Rng(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::sim
