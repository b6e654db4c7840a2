// Fault-injection mechanics, seam by seam: FaultyTransport's
// drop/delay/duplicate/reply faults keep the in-process transport's
// shutdown drain exact; RequestLoop's deadline, retry, and error
// taxonomy respond as documented; and the InProcessTransport
// close-while-in-flight contract (the pre-PR-10 lost-replies bug) stays
// pinned.

#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/advisor.hpp"
#include "serve/request_loop.hpp"

namespace gridsub::fault {
namespace {

using serve::AdvisorRequest;
using serve::AdvisorResponse;
using serve::AdvisorService;
using serve::InProcessTransport;
using serve::RequestLoop;
using serve::ResponseStatus;

/// One-class schedule at rate 1: every request suffers exactly `set`.
FaultScheduleConfig only(double FaultScheduleConfig::* rate) {
  FaultScheduleConfig c;
  c.seed = 5;
  c.*rate = 1.0;
  return c;
}

struct LoopRun {
  std::vector<AdvisorResponse> responses;
  std::uint64_t served = 0;
  std::uint64_t degraded = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t reply_retries = 0;
  std::uint64_t lost_replies = 0;
};

/// Posts `requests` through a FaultyTransport into one RequestLoop and
/// drains every reply. The close happens after all posts, so delayed
/// requests flush during the drain.
LoopRun run_loop(const FaultScheduleConfig& schedule,
                 std::vector<AdvisorRequest> requests,
                 serve::RequestLoopOptions options = {}) {
  AdvisorService service;  // default config; every key answers fallback
  FaultInjector injector(schedule);
  InProcessTransport inner(256);
  FaultyTransport faulty(inner, injector);
  RequestLoop loop(service, faulty, options);
  loop.start();

  LoopRun out;
  std::thread taker([&] {
    AdvisorResponse r;
    while (inner.take_reply(r)) out.responses.push_back(r);
  });
  for (AdvisorRequest& r : requests) inner.post(r);
  inner.close();
  loop.join();
  taker.join();
  out.served = loop.served();
  out.degraded = loop.degraded();
  out.deadline_expired = loop.deadline_expired();
  out.reply_retries = loop.reply_retries();
  out.lost_replies = loop.lost_replies();
  return out;
}

std::vector<AdvisorRequest> advise_requests(std::size_t n) {
  std::vector<AdvisorRequest> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].id = i;
    reqs[i].key = {"vo0", "lpc", "uc0"};
  }
  return reqs;
}

TEST(FaultyTransport, DroppedRequestsStillDrainCleanly) {
  const LoopRun run =
      run_loop(only(&FaultScheduleConfig::drop_request), advise_requests(32));
  // Every request vanished before the loop; the drain still terminates
  // and nobody hangs — abandon() settled the in-flight accounting.
  EXPECT_TRUE(run.responses.empty());
  EXPECT_EQ(run.served, 0u);
}

TEST(FaultyTransport, DuplicatedRequestsAreAnsweredTwice) {
  const LoopRun run = run_loop(only(&FaultScheduleConfig::duplicate_request),
                               advise_requests(16));
  EXPECT_EQ(run.responses.size(), 32u);
  std::map<std::uint64_t, int> per_id;
  for (const AdvisorResponse& r : run.responses) ++per_id[r.id];
  for (const auto& [id, count] : per_id) EXPECT_EQ(count, 2) << "id " << id;
}

TEST(FaultyTransport, DelayedRequestsArriveAgedButNeverLost) {
  FaultScheduleConfig c = only(&FaultScheduleConfig::delay_request);
  c.delay_ops = 3;
  const LoopRun run = run_loop(c, advise_requests(16));
  ASSERT_EQ(run.responses.size(), 16u);
  for (const AdvisorResponse& r : run.responses) {
    EXPECT_EQ(r.status, ResponseStatus::kOk);
  }
}

TEST(FaultyTransport, DelayPlusDeadlineYieldsDeadlineExceeded) {
  FaultScheduleConfig c = only(&FaultScheduleConfig::delay_request);
  c.delay_ops = 4;
  std::vector<AdvisorRequest> reqs = advise_requests(16);
  for (AdvisorRequest& r : reqs) r.deadline = 2;  // < delay_ops
  const LoopRun run = run_loop(c, std::move(reqs));
  ASSERT_EQ(run.responses.size(), 16u);
  for (const AdvisorResponse& r : run.responses) {
    EXPECT_EQ(r.status, ResponseStatus::kDeadlineExceeded);
  }
  EXPECT_EQ(run.deadline_expired, 16u);
}

TEST(FaultyTransport, TransientReplyFailuresAreRetriedToDelivery) {
  FaultScheduleConfig c = only(&FaultScheduleConfig::transient_reply);
  c.transient_attempts = 2;
  serve::RequestLoopOptions options;
  options.max_reply_attempts = 4;  // > transient_attempts: always recovers
  const LoopRun run = run_loop(c, advise_requests(16), options);
  EXPECT_EQ(run.responses.size(), 16u);
  EXPECT_EQ(run.served, 16u);
  EXPECT_EQ(run.lost_replies, 0u);
  EXPECT_EQ(run.reply_retries, 32u);  // two failures per reply
}

TEST(FaultyTransport, ExhaustedRetriesAbandonWithoutHanging) {
  FaultScheduleConfig c = only(&FaultScheduleConfig::transient_reply);
  c.transient_attempts = 10;
  serve::RequestLoopOptions options;
  options.max_reply_attempts = 2;  // < transient_attempts: always loses
  const LoopRun run = run_loop(c, advise_requests(8), options);
  EXPECT_TRUE(run.responses.empty());
  EXPECT_EQ(run.lost_replies, 8u);
}

TEST(FaultyTransport, DroppedRepliesSettleTheDrain) {
  const LoopRun run =
      run_loop(only(&FaultScheduleConfig::drop_reply), advise_requests(24));
  EXPECT_TRUE(run.responses.empty());
  EXPECT_EQ(run.served, 24u);  // the loop believes it delivered
  EXPECT_EQ(run.lost_replies, 0u);
}

TEST(FaultyTransport, EventLogRecordsEveryInjection) {
  FaultScheduleConfig c;
  c.seed = 21;
  c.drop_request = 0.25;
  c.duplicate_request = 0.25;
  FaultInjector injector(c);
  AdvisorService service;
  InProcessTransport inner(256);
  FaultyTransport faulty(inner, injector);
  RequestLoop loop(service, faulty);
  loop.start();
  std::thread taker([&] {
    AdvisorResponse r;
    while (inner.take_reply(r)) {
    }
  });
  for (const AdvisorRequest& r : advise_requests(64)) inner.post(r);
  inner.close();
  loop.join();
  taker.join();

  const FaultSchedule schedule(c);
  std::uint64_t drops = 0;
  std::uint64_t dups = 0;
  for (std::uint64_t id = 0; id < 64; ++id) {
    if (schedule.request_fault(id) == RequestFault::kDrop) ++drops;
    if (schedule.request_fault(id) == RequestFault::kDuplicate) ++dups;
  }
  EXPECT_EQ(injector.count(FaultClass::kDropRequest), drops);
  EXPECT_EQ(injector.count(FaultClass::kDuplicateRequest), dups);
  EXPECT_GT(drops + dups, 0u);
}

// --------------------------------------------------------------------------
// InProcessTransport shutdown contract
// --------------------------------------------------------------------------

TEST(InProcessTransportShutdown, CloseWhileInFlightLosesNoReplies) {
  // The pinned contract: requests already handed to a server via next()
  // when close() lands must still be answered, and take_reply() must
  // keep blocking for them instead of reporting "drained".
  InProcessTransport transport(8);
  AdvisorRequest a;
  a.id = 1;
  AdvisorRequest b;
  b.id = 2;
  transport.post(a);
  transport.post(b);

  AdvisorRequest got;
  ASSERT_TRUE(transport.next(got));
  ASSERT_TRUE(transport.next(got));  // both now in flight, none replied
  transport.close();

  std::vector<std::uint64_t> ids;
  std::thread taker([&] {
    AdvisorResponse r;
    while (transport.take_reply(r)) ids.push_back(r.id);
  });
  AdvisorResponse r1;
  r1.id = 1;
  AdvisorResponse r2;
  r2.id = 2;
  EXPECT_TRUE(transport.reply(r1));
  EXPECT_TRUE(transport.reply(r2));
  taker.join();
  EXPECT_EQ(ids.size(), 2u);  // the old predicate returned false with 0
}

TEST(InProcessTransportShutdown, AbandonSettlesTheLastInFlightRequest) {
  InProcessTransport transport(8);
  AdvisorRequest a;
  a.id = 7;
  transport.post(a);
  AdvisorRequest got;
  ASSERT_TRUE(transport.next(got));
  transport.close();
  std::thread taker([&] {
    AdvisorResponse r;
    EXPECT_FALSE(transport.take_reply(r));  // unblocked by abandon below
  });
  transport.abandon();
  taker.join();
}

TEST(InProcessTransportShutdown, CloseOnIdleTransportDrainsImmediately) {
  InProcessTransport transport(8);
  transport.close();
  AdvisorResponse r;
  EXPECT_FALSE(transport.take_reply(r));
  AdvisorRequest q;
  EXPECT_FALSE(transport.next(q));
  EXPECT_THROW(transport.post(AdvisorRequest{}), std::runtime_error);
}

}  // namespace
}  // namespace gridsub::fault
