// Determinism wall for the fault framework itself: one seed fully
// determines the chaos. The same seeded run — replayed ingestion with
// stalls, refresh pauses, and a faulted serving path — must produce a
// byte-identical injected-event log AND a byte-identical final advisor
// dump at 1, 2, and 8 threads. This is what
// makes a chaos failure reproducible: rerun the seed, get the same
// faults, in any debugger, at any parallelism.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_injector.hpp"
#include "serve/advisor.hpp"
#include "serve/replay_feed.hpp"
#include "serve/request_loop.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::fault {
namespace {

using serve::AdvisorConfig;
using serve::AdvisorKey;
using serve::AdvisorRequest;
using serve::AdvisorResponse;
using serve::AdvisorService;
using serve::InProcessTransport;
using serve::RequestLoop;

FaultScheduleConfig det_schedule() {
  FaultScheduleConfig c;
  c.seed = 424242;
  c.drop_request = 0.05;
  c.delay_request = 0.08;
  c.duplicate_request = 0.04;
  c.drop_reply = 0.03;
  c.transient_reply = 0.06;
  c.ingest_stall = 0.02;
  c.refresher_pause = 0.5;
  return c;
}

AdvisorConfig det_config() {
  AdvisorConfig c;
  c.planner.window = 80;
  c.planner.min_observations = 30;
  c.planner.refit_interval = 40;
  c.planner.model_step = 50.0;
  c.planner.timeout = 4000.0;
  c.fallback_t_inf = 1200.0;
  c.refresh_pending = 16;
  c.staleness_bound = 8;
  return c;
}

const traces::Workload& det_workload() {
  static const traces::Workload w = [] {
    traces::ScenarioConfig scenario;
    scenario.duration = 7200.0;
    scenario.base_rate = 0.2;
    scenario.runtime_mean = 600.0;
    return traces::make_scenario("diurnal-week", scenario);
  }();
  return w;
}

struct ChaosRun {
  std::string events_json;
  std::string dump_json;
  std::uint64_t served = 0;
  std::uint64_t responses = 0;
};

/// One full seeded chaos run at `threads` ingest workers and `threads`
/// serving loops. Every fault decision is keyed on a thread-count
/// invariant identity: global job index within each ingest window,
/// refresh generation (explicit refresh_now after each window, so
/// generations are 1, 2, 3 at any parallelism), and request id.
ChaosRun run_chaos(std::size_t threads) {
  FaultInjector injector(det_schedule());

  AdvisorConfig config = det_config();
  config.refresh_fault = injector.refresher_hook();
  AdvisorService service(config);

  // Phase 1: ingest three workload windows under stalls, publishing a
  // snapshot after each — deterministic generations however many workers.
  serve::ReplayFeedConfig feed;
  feed.ingest_threads = threads;
  feed.fault_hook = injector.ingest_hook();
  const double third = det_workload().duration() / 3.0;
  for (int window = 0; window < 3; ++window) {
    const traces::Workload slice = det_workload().window(
        third * window, window == 2 ? det_workload().duration() + 1.0
                                    : third * (window + 1));
    (void)replay_feed(service, slice, feed);
    service.refresh_now();
  }

  // Phase 2: serve a fixed request id sequence through the faulty
  // transport with `threads` loops racing over it.
  ChaosRun out;
  {
    InProcessTransport inner(128);
    FaultyTransport faulty(inner, injector);
    std::vector<std::unique_ptr<RequestLoop>> loops;
    for (std::size_t i = 0; i < threads; ++i) {
      loops.push_back(std::make_unique<RequestLoop>(service, faulty));
      loops.back()->start();
    }
    std::uint64_t taken = 0;
    std::thread taker([&] {
      AdvisorResponse r;
      while (inner.take_reply(r)) ++taken;
    });
    const std::vector<AdvisorKey> keys = {
        {"vo0", "lpc", "uc0"}, {"vo1", "lpc", "uc1"}, {"vo2", "nikhef", "uc0"},
        {"vo0", "nikhef", "uc1"}};
    for (std::uint64_t id = 0; id < 400; ++id) {
      AdvisorRequest r;
      r.id = id;
      r.key = keys[id % keys.size()];
      if (id % 13 == 0) r.deadline = 2;
      inner.post(r);
    }
    inner.close();
    for (auto& loop : loops) loop->join();
    taker.join();
    for (const auto& loop : loops) out.served += loop->served();
    out.responses = taken;
  }

  service.refresh_now();
  std::ostringstream dump;
  service.dump_json(dump);
  out.dump_json = dump.str();
  std::ostringstream events;
  injector.write_events_json(events);
  out.events_json = events.str();
  return out;
}

TEST(FaultDeterminism, SameSeedSameFaultsAndSameDumpAtOneTwoEightThreads) {
  const ChaosRun one = run_chaos(1);
  const ChaosRun two = run_chaos(2);
  const ChaosRun eight = run_chaos(8);

  // The run must have been genuinely chaotic and genuinely served.
  ASSERT_FALSE(one.events_json.empty());
  EXPECT_NE(one.events_json.find("drop-request"), std::string::npos);
  EXPECT_NE(one.events_json.find("ingest-stall"), std::string::npos);
  EXPECT_NE(one.events_json.find("refresher-pause"), std::string::npos);
  EXPECT_NE(one.dump_json.find("\"ready\": true"), std::string::npos);
  EXPECT_GT(one.served, 0u);

  // The wall itself: byte-identical fault log and final state.
  EXPECT_EQ(one.events_json, two.events_json);
  EXPECT_EQ(one.events_json, eight.events_json);
  EXPECT_EQ(one.dump_json, two.dump_json);
  EXPECT_EQ(one.dump_json, eight.dump_json);

  // Delivery accounting is seed-determined too: drops and duplicates are
  // fixed by the schedule, so the loops' served totals agree.
  EXPECT_EQ(one.served, two.served);
  EXPECT_EQ(one.served, eight.served);
  EXPECT_EQ(one.responses, two.responses);
  EXPECT_EQ(one.responses, eight.responses);
}

TEST(FaultDeterminism, EventLogsFromSeparateInjectorsMatchExactly) {
  // Two injectors over the same schedule fed the same operation ids must
  // log identical events — there is no per-instance hidden state.
  FaultInjector a(det_schedule());
  FaultInjector b(det_schedule());
  for (std::uint64_t id = 0; id < 300; ++id) {
    a.ingest_hook()(0, id);
    b.ingest_hook()(0, id);
    a.refresher_hook()(id);
    b.refresher_hook()(id);
  }
  std::ostringstream ea;
  std::ostringstream eb;
  a.write_events_json(ea);
  b.write_events_json(eb);
  ASSERT_FALSE(ea.str().empty());
  EXPECT_EQ(ea.str(), eb.str());
}

}  // namespace
}  // namespace gridsub::fault
