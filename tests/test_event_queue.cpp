#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "stats/rng.hpp"

namespace gridsub::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<double> fired;
  // Near and far times pushed out of order, plus a daemon at the 1e18
  // sentinel some benches park: work ends while the daemon is pending.
  const std::vector<double> times = {5.0,   1000.0,  12.0, 640.0,
                                     2.5e6, 41000.0, 1e18, 30.0};
  for (const double t : times) {
    q.push(t, [&fired, t] { fired.push_back(t); }, /*daemon=*/t == 1e18);
  }
  while (q.live_size() > 0) q.pop().fn();
  std::vector<double> expected = times;
  std::sort(expected.begin(), expected.end());
  expected.pop_back();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 1e18);
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  q.push(5.0, [&] { order.push_back(1); });
  q.push(5.0, [&] { order.push_back(2); });
  q.push(5.0, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.push(1.0, [&] { ++fired; });
  q.push(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // double-cancel reports false
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCanceledHead) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(7.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, PushEmptyCallbackThrows) {
  // std::function deferred this mistake to a bad_function_call when the
  // event fired; the slot map rejects it at the call site instead.
  EventQueue q;
  EXPECT_THROW(q.push(1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(q.push(1.0, SmallFn{}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PushRejectsNanBeforeTakingAnything) {
  // The heap orders an integer image of the time, in which a NaN would
  // sort after +inf; push must refuse it before a slot or seq is taken.
  EventQueue q;
  q.push(1.0, [] {});
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.push(-std::numeric_limits<double>::quiet_NaN(), [] {},
                      /*daemon=*/true),
               std::invalid_argument);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_EQ(q.queued(), 1u);
  // The refused pushes left the tie-break counter alone: two later
  // pushes at the same time still fire in push order.
  std::vector<int> order;
  q.push(2.0, [&order] { order.push_back(1); });
  q.push(2.0, [&order] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, NegativeZeroTiesWithPositiveZero) {
  // -0.0 == +0.0 under the double compare, so a -0.0 pushed after a +0.0
  // fires second; the queue files it as +0.0 and hands that time back.
  EventQueue q;
  std::vector<int> order;
  q.push(0.0, [&order] { order.push_back(1); });
  q.push(-0.0, [&order] { order.push_back(2); });
  q.push(-1e-300, [&order] { order.push_back(0); });
  EXPECT_EQ(q.next_time(), -1e-300);
  q.pop().fn();
  for (int i = 0; i < 2; ++i) {
    EventQueue::Fired fired = q.pop();
    EXPECT_EQ(fired.time, 0.0);
    EXPECT_FALSE(std::signbit(fired.time));
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ExtremeTimesPopInTimeThenPushOrder) {
  // Negative, zero, subnormal, huge and infinite times, each pushed
  // several times in shuffled order, must pop exactly as a std::set on
  // (time, seq) orders them, and every time must come back bit for bit.
  using limits = std::numeric_limits<double>;
  const std::vector<double> times = {
      -limits::infinity(), -1e300, -2.5, -limits::denorm_min(), 0.0, -0.0,
      limits::denorm_min(), 1e-300, 1.0, 1.0 + 1e-15, 1e300, limits::max(),
      limits::infinity()};
  stats::Rng rng(271828);
  EventQueue q;
  std::set<std::pair<double, std::size_t>> reference;  // (time, seq)
  std::vector<EventId> ids;
  std::size_t last_fired = 0;
  for (std::size_t seq = 0; seq < 400; ++seq) {
    const double t = times[rng.uniform_int(times.size())];
    ids.push_back(q.push(t, [&last_fired, seq] { last_fired = seq; }));
    reference.emplace(t == 0.0 ? 0.0 : t, seq);
  }
  for (const auto& [time, seq] : reference) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(q.next_time()),
              std::bit_cast<std::uint64_t>(time));
    EventQueue::Fired fired = q.pop();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fired.time),
              std::bit_cast<std::uint64_t>(time));
    ASSERT_EQ(fired.id, ids[seq]);
    fired.fn();
    ASSERT_EQ(last_fired, seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelHeavyLoopKeepsHeapBounded) {
  // A timeout strategy cancels and reschedules constantly over a simulated
  // week. cancel() removes the heap entry at once, so the heap holds the
  // live events and nothing else.
  EventQueue q;
  q.push(1e12, [] {});  // one long-lived survivor
  std::size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    const EventId id = q.push(1.0 + i, [] {});
    peak = std::max(peak, q.queued());
    q.cancel(id);
    ASSERT_EQ(q.queued(), q.size());
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(peak, 2u);
}

TEST(EventQueue, OrderingSurvivesCancelChurn) {
  // Interleave live timers with a storm of cancel/reschedule churn, then
  // check the survivors still fire in (time, insertion) order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    q.push(1000.0 - i, [&order, i] { order.push_back(i); });
    for (int j = 0; j < 40; ++j) {
      q.cancel(q.push(5.0 + j, [] {}));  // removes from inside the heap
    }
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GT(order[i - 1], order[i]);  // later-pushed fire earlier
  }
}

TEST(EventQueue, StaleCancelOnRecycledSlotReturnsFalse) {
  // The slot map recycles storage: after cancel(a), a new push may land in
  // a's slot. The generation check must reject the stale id instead of
  // cancelling the new tenant.
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  int fired = 0;
  const EventId b = q.push(2.0, [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));  // stale id, possibly recycled slot
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);  // b survived the stale cancel
}

TEST(EventQueue, StaleCancelAfterPopReturnsFalse) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.pop();  // a ran; its slot is free for reuse
  int fired = 0;
  const EventId b = q.push(2.0, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, IdsStayUniqueUnderSlotReuse) {
  // Heavy churn reuses a handful of slots; the (generation, index) ids
  // must still never repeat — and never be 0, the callers' sentinel.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    const EventId id = q.push(1.0, [] {});
    EXPECT_NE(id, 0u);
    ids.push_back(id);
    q.cancel(id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(EventQueue, HeapBoundHoldsWithLiveDaemonMix) {
  // Cancel storm interleaved with live regular and daemon events: the
  // heap must still hold exactly the live events of both kinds.
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    q.push(1e9 + i, [] {});
    q.push(60.0 * i, [] {}, /*daemon=*/true);
  }
  for (int i = 0; i < 50000; ++i) {
    q.cancel(q.push(1.0 + i, [] {}));
    ASSERT_EQ(q.queued(), q.size());
  }
  EXPECT_EQ(q.size(), 20u);
  EXPECT_EQ(q.live_size(), 10u);
}

TEST(EventQueue, InlineCallbackBufferCoversHotCaptures) {
  // The no-allocation guarantee for the hot events only holds while the
  // real capture sets fit SmallFn's inline buffer; pin it so a future
  // capture-set growth fails loudly here instead of silently regressing.
  struct HotCapture {  // WMS matchmaking hop: (this, ticket, runtime)
    void* self;
    std::uint64_t ticket;
    double runtime;
    void operator()() const {}
  };
  static_assert(SmallFn::stores_inline<HotCapture>());
  struct HotSharedCapture {  // probe start and timeout: (this, state)
    void* self;
    std::shared_ptr<int> state;
    void operator()() const {}
  };
  static_assert(SmallFn::stores_inline<HotSharedCapture>());

  // Oversized captures must transparently fall back to the heap and still
  // run (correctness never depends on the capture size).
  struct BigCapture {
    double padding[16];
    int* counter;
    void operator()() const { ++*counter; }
  };
  static_assert(!SmallFn::stores_inline<BigCapture>());
  EventQueue q;
  int fired = 0;
  BigCapture big{};
  big.counter = &fired;
  q.push(1.0, big);
  q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.push(t, [&times, t] { times.push_back(t); });
  }
  while (!q.empty()) q.pop().fn();
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

/// The queue under test beside a std::set of (time, seq), the order it
/// promises. Every operation is applied to both, and check() compares
/// every observer afterwards.
class ReferencedQueue {
 public:
  void push(double time, bool daemon = false) {
    const std::size_t seq = issued_.size();
    const EventId id =
        q_.push(time, [this, seq] { last_fired_ = seq; }, daemon);
    issued_.push_back({id, time == 0.0 ? 0.0 : time, daemon, true});
    reference_.emplace(issued_.back().time, seq);
    if (!daemon) ++live_;
  }

  /// Cancels the event pushed as number `seq`, live or not.
  testing::AssertionResult cancel(std::size_t seq) {
    Issued& target = issued_[seq];
    if (q_.cancel(target.id) != target.pending) {
      return testing::AssertionFailure() << "cancel of push " << seq;
    }
    if (target.pending) {
      reference_.erase({target.time, seq});
      if (!target.daemon) --live_;
      target.pending = false;
    }
    return testing::AssertionSuccess();
  }

  testing::AssertionResult pop() {
    const auto [time, seq] = *reference_.begin();
    reference_.erase(reference_.begin());
    EventQueue::Fired fired = q_.pop();
    fired.fn();
    if (std::bit_cast<std::uint64_t>(fired.time) !=
            std::bit_cast<std::uint64_t>(time) ||
        fired.id != issued_[seq].id || last_fired_ != seq) {
      return testing::AssertionFailure()
             << "popped t=" << fired.time << " (push " << last_fired_
             << "), expected t=" << time << " (push " << seq << ")";
    }
    if (!issued_[seq].daemon) --live_;
    issued_[seq].pending = false;
    return testing::AssertionSuccess();
  }

  /// Compares size(), live_size(), queued() and empty(), and next_time()
  /// when `with_next_time` (it refills the front, so skipping it at times
  /// leaves pop() to meet an empty front itself).
  testing::AssertionResult check(bool with_next_time = true) {
    if (q_.size() != reference_.size() || q_.live_size() != live_ ||
        q_.queued() != reference_.size() ||
        q_.empty() != reference_.empty()) {
      return testing::AssertionFailure()
             << "size " << q_.size() << " live " << q_.live_size()
             << " queued " << q_.queued() << ", expected "
             << reference_.size() << " / " << live_;
    }
    if (with_next_time && !reference_.empty() &&
        std::bit_cast<std::uint64_t>(q_.next_time()) !=
            std::bit_cast<std::uint64_t>(reference_.begin()->first)) {
      return testing::AssertionFailure()
             << "next_time " << q_.next_time() << ", expected "
             << reference_.begin()->first;
    }
    return testing::AssertionSuccess();
  }

  EventQueue& queue() { return q_; }
  [[nodiscard]] bool empty() const { return reference_.empty(); }
  [[nodiscard]] std::size_t pushes() const { return issued_.size(); }
  [[nodiscard]] bool pending(std::size_t seq) const {
    return issued_[seq].pending;
  }
  [[nodiscard]] double front_time() const {
    return reference_.begin()->first;
  }

 private:
  struct Issued {
    EventId id;
    double time;
    bool daemon;
    bool pending;  ///< neither canceled nor popped yet
  };
  EventQueue q_;
  std::vector<Issued> issued_;  // indexed by push order (= seq)
  std::set<std::pair<double, std::size_t>> reference_;  // (time, seq)
  std::size_t live_ = 0;  // non-daemon entries in `reference_`
  std::size_t last_fired_ = 0;
};

TEST(EventQueue, MatchesAReferenceSetUnderRandomOperations) {
  // Seeded differential test against a std::set ordered by (time, seq),
  // the order the queue promises. Times are drawn from a narrow integer
  // range, so ties (broken by push order) are common; about one event in
  // eight is a daemon; cancels name live, canceled (possibly recycled)
  // and already-popped ids alike. A cancel inside the heap moves the last
  // entry into the hole, which must then sift up or down; checking the
  // head after every operation catches either direction going wrong.
  ReferencedQueue q;
  stats::Rng rng(20090611);
  double clock = 0.0;
  std::size_t cancels_true = 0;
  std::size_t cancels_false = 0;
  std::size_t peak = 0;
  for (int op = 0; op < 40000; ++op) {
    const std::uint64_t dice = rng.uniform_int(100);
    if (dice < 45) {
      const double time = clock + static_cast<double>(rng.uniform_int(40));
      q.push(time, rng.uniform_int(8) == 0);
    } else if (dice < 80 && q.pushes() > 0) {
      const std::size_t seq = rng.uniform_int(q.pushes());
      ++(q.pending(seq) ? cancels_true : cancels_false);
      ASSERT_TRUE(q.cancel(seq)) << "op " << op;
    } else if (!q.empty()) {
      clock = q.front_time();
      ASSERT_TRUE(q.pop()) << "op " << op;
    }
    peak = std::max(peak, q.queue().size());
    ASSERT_TRUE(q.check()) << "op " << op;
  }
  // The mix must have exercised both cancel outcomes and a deep heap.
  EXPECT_GT(cancels_true, 1000u);
  EXPECT_GT(cancels_false, 1000u);
  EXPECT_GT(peak, 1000u);
}

TEST(EventQueue, RadixPathsMatchAReferenceSet) {
  // The radix heap's paths against a std::set, with every observer
  // checked after every operation (next_time() after three in four):
  //   - continuous times over many magnitudes: exponential gaps of mean
  //     2,200 s, occasional 1e6 s jumps and +inf, so entries land in many
  //     buckets and move down through refills;
  //   - pushes below the origin right after next_time() refilled the
  //     front, ties with it, and pushes below the last time after the
  //     queue drained;
  //   - cancels of front entries (fresh below-origin pushes), of bucket
  //     entries in the middle (the bucket's last entry moves into the
  //     hole and is later canceled or popped from there) and of the
  //     newest push, the last entry of its bucket;
  //   - 12,000 events at one instant, popping in push order.
  ReferencedQueue q;
  stats::Rng rng(20090611);
  double clock = 0.0;
  const auto future_time = [&rng, &clock] {
    const std::uint64_t kind = rng.uniform_int(200);
    if (kind == 0) return std::numeric_limits<double>::infinity();
    if (kind < 5) return clock + 1e6;
    return clock + rng.exponential(1.0 / 2200.0);
  };
  std::size_t below_origin = 0;
  for (int op = 0; op < 60000; ++op) {
    const std::uint64_t dice = rng.uniform_int(100);
    if (dice < 40) {
      q.push(future_time(), rng.uniform_int(8) == 0);
    } else if (dice < 55 && q.pushes() > 0) {
      // Mostly recent pushes, which are still pending.
      const std::size_t n = q.pushes();
      const std::size_t back = rng.uniform_int(std::min<std::size_t>(n, 64));
      ASSERT_TRUE(q.cancel(n - 1 - back)) << "op " << op;
    } else if (dice < 60 && q.pushes() > 0) {
      ASSERT_TRUE(q.cancel(rng.uniform_int(q.pushes()))) << "op " << op;
    } else if (dice < 65 && !q.empty()) {
      // next_time() refills the front; a push in [clock, next) lies
      // below the new origin, one at next ties with it. Both go to the
      // front, and some are canceled there at once.
      const double next = q.queue().next_time();
      if (next > clock && next < std::numeric_limits<double>::infinity()) {
        q.push(clock + (next - clock) * rng.uniform01());
        ++below_origin;
        if (rng.uniform_int(2) == 0) {
          ASSERT_TRUE(q.cancel(q.pushes() - 1)) << "op " << op;
        }
      }
      q.push(next);
    } else if (!q.empty()) {
      clock = q.front_time();
      ASSERT_TRUE(q.pop()) << "op " << op;
    }
    ASSERT_TRUE(q.check(rng.uniform_int(4) != 0)) << "op " << op;
    if (op % 15000 == 14999) {
      // Drain, then push below the last popped time: the empty queue
      // starts over, whatever its origin had reached.
      while (!q.empty()) {
        if (q.front_time() < std::numeric_limits<double>::infinity()) {
          clock = q.front_time();
        }
        ASSERT_TRUE(q.pop()) << "op " << op;
        ASSERT_TRUE(q.check()) << "op " << op;
      }
      for (int i = 0; i < 50; ++i) {
        q.push(clock * rng.uniform01());
        ASSERT_TRUE(q.check()) << "op " << op;
      }
      clock = 0.0;
    }
  }
  EXPECT_GT(below_origin, 1000u);

  // A mass tie, as when thousands of clients arm a 900 s timeout in one
  // instant: 12,000 events at t, interleaved with earlier and later ones,
  // every seventh canceled, then more ties pushed and canceled once
  // next_time() has made t the origin.
  const double t = clock + 900.0;
  std::vector<std::size_t> at_t;
  for (int i = 0; i < 12000; ++i) {
    at_t.push_back(q.pushes());
    q.push(t);
    if (i % 7 == 3) {
      ASSERT_TRUE(q.cancel(at_t.back()));
    }
    if (i % 10 == 0) q.push(future_time());
    ASSERT_TRUE(q.check()) << "tie " << i;
  }
  while (q.queue().next_time() < t) {
    ASSERT_TRUE(q.pop());
    ASSERT_TRUE(q.check());
  }
  for (int i = 0; i < 500; ++i) {
    at_t.push_back(q.pushes());
    q.push(t);
    ASSERT_TRUE(q.cancel(at_t[rng.uniform_int(at_t.size())]));
    ASSERT_TRUE(q.check()) << "late tie " << i;
  }
  std::size_t ties_popped = 0;
  while (!q.empty()) {
    ties_popped += q.front_time() == t ? 1 : 0;
    ASSERT_TRUE(q.pop());
    ASSERT_TRUE(q.check());
  }
  EXPECT_GT(ties_popped, 10000u);
  EXPECT_EQ(q.queue().queued(), 0u);
}

}  // namespace
}  // namespace gridsub::sim
