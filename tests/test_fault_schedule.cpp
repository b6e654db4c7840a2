// FaultSchedule contract tests: decisions are pure functions of
// (seed, class, id), same-domain fault classes are mutually exclusive,
// configured rates are actually realized, and a different seed draws a
// different fault set. Nothing here spawns a thread — purity is what
// makes the chaos wall's thread-count invariance possible at all.

#include "fault/fault_schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace gridsub::fault {
namespace {

FaultScheduleConfig standard() {
  FaultScheduleConfig c;
  c.seed = 1234;
  c.drop_request = 0.05;
  c.delay_request = 0.10;
  c.duplicate_request = 0.05;
  c.drop_reply = 0.03;
  c.transient_reply = 0.07;
  c.ingest_stall = 0.02;
  c.refresher_pause = 0.5;
  return c;
}

TEST(FaultScheduleConfig, ValidatesRatesAndGroupSums) {
  EXPECT_TRUE(FaultScheduleConfig{}.validate());
  EXPECT_TRUE(standard().validate());

  FaultScheduleConfig bad = standard();
  bad.drop_request = -0.1;
  EXPECT_FALSE(bad.validate());

  bad = standard();
  bad.drop_request = 0.6;
  bad.delay_request = 0.6;  // request group sums past 1
  EXPECT_FALSE(bad.validate());
}

TEST(FaultSchedule, DecisionsArePureAndInstanceIndependent) {
  const FaultSchedule a(standard());
  const FaultSchedule b(standard());
  for (std::uint64_t id = 0; id < 2000; ++id) {
    EXPECT_EQ(a.request_fault(id), b.request_fault(id));
    EXPECT_EQ(a.request_fault(id), a.request_fault(id));  // repeatable
    EXPECT_EQ(a.reply_fault(id), b.reply_fault(id));
    EXPECT_EQ(a.ingest_stall(id), b.ingest_stall(id));
    EXPECT_EQ(a.refresher_pause(id), b.refresher_pause(id));
  }
}

TEST(FaultSchedule, DefaultScheduleInjectsNothing) {
  const FaultSchedule none{FaultScheduleConfig{}};
  for (std::uint64_t id = 0; id < 500; ++id) {
    EXPECT_EQ(none.request_fault(id), RequestFault::kNone);
    EXPECT_EQ(none.reply_fault(id), ReplyFault::kNone);
    EXPECT_FALSE(none.ingest_stall(id));
    EXPECT_FALSE(none.refresher_pause(id));
  }
}

TEST(FaultSchedule, RealizedRatesMatchConfiguredRates) {
  const FaultSchedule s(standard());
  constexpr std::uint64_t kIds = 20000;
  std::uint64_t drop = 0;
  std::uint64_t delay = 0;
  std::uint64_t dup = 0;
  std::uint64_t stall = 0;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    switch (s.request_fault(id)) {
      case RequestFault::kDrop: ++drop; break;
      case RequestFault::kDelay: ++delay; break;
      case RequestFault::kDuplicate: ++dup; break;
      case RequestFault::kNone: break;
    }
    if (s.ingest_stall(id)) ++stall;
  }
  const double n = static_cast<double>(kIds);
  EXPECT_NEAR(static_cast<double>(drop) / n, 0.05, 0.01);
  EXPECT_NEAR(static_cast<double>(delay) / n, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(dup) / n, 0.05, 0.01);
  EXPECT_NEAR(static_cast<double>(stall) / n, 0.02, 0.01);
}

TEST(FaultSchedule, DifferentSeedsDrawDifferentFaultSets) {
  FaultScheduleConfig other = standard();
  other.seed = 99;
  const FaultSchedule a(standard());
  const FaultSchedule b(other);
  std::uint64_t differing = 0;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    if (a.request_fault(id) != b.request_fault(id)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultSchedule, ClassStreamsAreIndependent) {
  // Request and reply decisions share the id domain but must not be
  // correlated: a dropped request id should not systematically imply a
  // dropped reply for the same id.
  FaultScheduleConfig c;
  c.seed = 7;
  c.drop_request = 0.5;
  c.drop_reply = 0.5;
  const FaultSchedule s(c);
  std::uint64_t both = 0;
  std::uint64_t req = 0;
  for (std::uint64_t id = 0; id < 20000; ++id) {
    const bool dreq = s.request_fault(id) == RequestFault::kDrop;
    const bool drep = s.reply_fault(id) == ReplyFault::kDrop;
    if (dreq) ++req;
    if (dreq && drep) ++both;
  }
  ASSERT_GT(req, 0u);
  // Conditional P(drop reply | drop request) should be ~0.5, not ~1.
  const double cond = static_cast<double>(both) / static_cast<double>(req);
  EXPECT_NEAR(cond, 0.5, 0.05);
}

}  // namespace
}  // namespace gridsub::fault
