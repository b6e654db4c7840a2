#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace gridsub::par {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoOp) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(5, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::int64_t i) {
                              if (i == 37) throw std::runtime_error("bad");
                            }),
               std::runtime_error);
}

TEST(ParallelForBlocked, BlocksCoverRangeWithoutOverlap) {
  std::vector<std::atomic<int>> hits(512);
  parallel_for_blocked(0, 512, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_LT(lo, hi);
    for (std::int64_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, WorksWithExplicitPool) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  parallel_for(0, 1000, [&](std::int64_t i) { sum += i; }, &pool);
  EXPECT_EQ(sum.load(), 499500);
}

}  // namespace
}  // namespace gridsub::par
