// Unit wall for the advisor snapshot path (ISSUE 9): keyed isolation,
// documented fallback for not-ready keys, drift stamping, monotone
// generation-numbered swaps, the torn-read stamp, the request loop, and
// the replay-feed key projection.

#include "serve/advisor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "serve/replay_feed.hpp"
#include "serve/request_loop.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::serve {
namespace {

/// Cheap per-key planner: coarse model grid and a small window, so a
/// refit costs milliseconds instead of the default config's hundreds.
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

AdvisorKey key(const std::string& vo, const std::string& site = "lpc",
               const std::string& uc = "uc0") {
  return AdvisorKey{vo, site, uc};
}

/// Ingests `n` completed observations around `center`. The period-30
/// spread keeps 30-observation window halves distribution-identical, so
/// stationary feeds stay under the drift threshold.
void feed(AdvisorService& service, const AdvisorKey& k, int n,
          double center) {
  for (int i = 0; i < n; ++i) {
    service.ingest(k, center + static_cast<double>(i % 30));
  }
}

TEST(Advisor, FallbackBeforeAnyData) {
  AdvisorService service(fast_config());
  AdvisorService::Reader reader(service);
  const Advice a = reader.advise(key("vo0"));
  EXPECT_FALSE(a.ready);
  EXPECT_EQ(a.kind, core::StrategyKind::kSingleResubmission);
  EXPECT_DOUBLE_EQ(a.t_inf, AdvisorService::kFallbackTInf);
  EXPECT_EQ(a.generation, 0u);
  EXPECT_EQ(a.entry_generation, 0u);
  EXPECT_EQ(advice_stamp(a), a.stamp);
}

TEST(Advisor, NotReadyKeyReturnsDocumentedFallback) {
  AdvisorService service(fast_config());
  AdvisorService::Reader reader(service);
  feed(service, key("vo0"), 10, 400.0);  // below min_observations = 30
  service.refresh_now();
  const Advice a = reader.advise(key("vo0"));
  EXPECT_FALSE(a.ready);
  EXPECT_EQ(a.kind, core::StrategyKind::kSingleResubmission);
  EXPECT_DOUBLE_EQ(a.t_inf, AdvisorService::kFallbackTInf);
  // The key *is* registered: its entry carries the publishing generation.
  EXPECT_EQ(a.generation, 1u);
  EXPECT_EQ(a.entry_generation, 1u);
  EXPECT_EQ(advice_stamp(a), a.stamp);
  EXPECT_EQ(service.stats().keys, 1u);
}

TEST(Advisor, ReadyKeyServesItsTunedRecommendation) {
  AdvisorService service(fast_config());
  AdvisorService::Reader reader(service);
  feed(service, key("vo0"), 60, 400.0);
  service.refresh_now();
  const Advice a = reader.advise(key("vo0"));
  EXPECT_TRUE(a.ready);
  EXPECT_GT(a.t_inf, 0.0);
  EXPECT_GT(a.expectation, 0.0);
  EXPECT_EQ(advice_stamp(a), a.stamp);
}

TEST(Advisor, KeyedIsolation) {
  AdvisorService service(fast_config());
  AdvisorService::Reader reader(service);
  feed(service, key("voA"), 60, 300.0);
  feed(service, key("voB"), 60, 1500.0);
  service.refresh_now();
  const Advice b_before = reader.advise(key("voB"));
  ASSERT_TRUE(b_before.ready);

  // A stream of new observations for A must not move B's recommendation:
  // same payload, same stamp, same entry generation.
  feed(service, key("voA"), 80, 900.0);
  service.refresh_now();
  const Advice a_after = reader.advise(key("voA"));
  const Advice b_after = reader.advise(key("voB"));
  EXPECT_EQ(b_after.stamp, b_before.stamp);
  EXPECT_EQ(b_after.entry_generation, b_before.entry_generation);
  EXPECT_DOUBLE_EQ(b_after.t_inf, b_before.t_inf);
  EXPECT_DOUBLE_EQ(b_after.expectation, b_before.expectation);
  // ...while A's entry was rebuilt by the new generation.
  EXPECT_EQ(a_after.entry_generation, 2u);
  EXPECT_EQ(b_after.generation, 2u);  // served from the new snapshot
}

TEST(Advisor, DriftFlagIsStampedIntoTheSnapshot) {
  AdvisorConfig config = fast_config();
  config.planner.window = 120;
  config.planner.refit_interval = 200;  // no refit between the regimes
  AdvisorService service(config);
  AdvisorService::Reader reader(service);
  const AdvisorKey k = key("vo0");
  feed(service, k, 60, 200.0);    // old regime
  feed(service, k, 60, 2800.0);   // new regime: halves separate
  service.refresh_now();
  const Advice a = reader.advise(k);
  EXPECT_TRUE(a.drifted);
  EXPECT_EQ(advice_stamp(a), a.stamp);

  // A stationary key in the same snapshot stays quiet.
  feed(service, key("vo1"), 60, 400.0);
  service.refresh_now();
  EXPECT_FALSE(reader.advise(key("vo1")).drifted);
}

TEST(Advisor, GenerationIsMonotoneAndSwapsOnlyWhenDirty) {
  AdvisorService service(fast_config());
  EXPECT_EQ(service.refresh_now(), 0u);  // nothing pending: no swap
  feed(service, key("vo0"), 5, 400.0);
  EXPECT_EQ(service.refresh_now(), 1u);
  EXPECT_EQ(service.refresh_now(), 1u);  // clean again: generation holds
  feed(service, key("vo0"), 1, 400.0);
  EXPECT_EQ(service.refresh_now(), 2u);
  const AdvisorStats stats = service.stats();
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.swaps, 2u);
  EXPECT_EQ(stats.staleness_last, 1u);
  EXPECT_EQ(stats.staleness_max, 5u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(Advisor, StampBindsThePayload) {
  AdvisorService service(fast_config());
  AdvisorService::Reader reader(service);
  feed(service, key("vo0"), 60, 400.0);
  service.refresh_now();
  Advice a = reader.advise(key("vo0"));
  EXPECT_EQ(advice_stamp(a), a.stamp);
  Advice tampered = a;
  tampered.t_inf += 1.0;
  EXPECT_NE(advice_stamp(tampered), a.stamp);
  tampered = a;
  tampered.entry_generation += 1;
  EXPECT_NE(advice_stamp(tampered), a.stamp);
  // generation is serving metadata, deliberately outside the stamp.
  tampered = a;
  tampered.generation += 1;
  EXPECT_EQ(advice_stamp(tampered), a.stamp);
}

TEST(Advisor, DumpJsonIsDeterministicAndSorted) {
  const auto run = [] {
    AdvisorService service(fast_config());
    feed(service, key("voB", "siteX"), 60, 700.0);
    feed(service, key("voA", "siteY"), 60, 300.0);
    feed(service, key("voA", "siteA"), 10, 500.0);  // not ready
    service.refresh_now();
    std::ostringstream os;
    service.dump_json(os);
    return os.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  // Keys come out sorted: voA/siteA before voA/siteY before voB/siteX.
  const auto a = first.find("\"siteA\"");
  const auto y = first.find("\"siteY\"");
  const auto x = first.find("\"siteX\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(y, std::string::npos);
  ASSERT_NE(x, std::string::npos);
  EXPECT_LT(a, y);
  EXPECT_LT(y, x);
  EXPECT_NE(first.find("\"fallback_t_inf\": 900,"), std::string::npos);
}

TEST(Advisor, ReaderCapacityIsEnforced) {
  AdvisorService service(fast_config());
  std::vector<std::unique_ptr<AdvisorService::Reader>> readers;
  for (std::size_t i = 0; i < AdvisorService::kMaxReaders; ++i) {
    readers.push_back(std::make_unique<AdvisorService::Reader>(service));
  }
  EXPECT_THROW(AdvisorService::Reader extra(service), std::runtime_error);
  readers.pop_back();  // a freed slot is reusable
  EXPECT_NO_THROW(AdvisorService::Reader again(service));
}

TEST(Advisor, ValidatesConfig) {
  AdvisorConfig bad;
  bad.refresh_pending = 0;
  EXPECT_THROW(AdvisorService{bad}, std::invalid_argument);
  AdvisorConfig bad2;
  bad2.planner.refit_interval = 0;  // planner config checked eagerly
  EXPECT_THROW(AdvisorService{bad2}, std::invalid_argument);
  AdvisorService service(fast_config());
  EXPECT_THROW(service.ingest(key("vo0"), -1.0), std::invalid_argument);
  EXPECT_THROW(service.ingest(key("vo0"), 4000.0), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Request loop over the in-process transport
// --------------------------------------------------------------------------

TEST(RequestLoop, ServesAdviseAndStats) {
  AdvisorService service(fast_config());
  feed(service, key("vo0"), 60, 400.0);
  service.refresh_now();

  InProcessTransport transport;
  RequestLoop loop(service, transport);
  loop.start();

  AdvisorRequest advise;
  advise.type = AdvisorRequest::Type::kAdvise;
  advise.id = 7;
  advise.key = key("vo0");
  transport.post(advise);
  AdvisorRequest stats;
  stats.type = AdvisorRequest::Type::kStats;
  stats.id = 8;
  transport.post(stats);

  bool saw_advise = false;
  bool saw_stats = false;
  for (int i = 0; i < 2; ++i) {
    AdvisorResponse response;
    ASSERT_TRUE(transport.take_reply(response));
    if (response.type == AdvisorRequest::Type::kAdvise) {
      EXPECT_EQ(response.id, 7u);
      EXPECT_TRUE(response.advice.ready);
      EXPECT_EQ(advice_stamp(response.advice), response.advice.stamp);
      saw_advise = true;
    } else {
      EXPECT_EQ(response.id, 8u);
      EXPECT_EQ(response.stats.keys, 1u);
      EXPECT_EQ(response.stats.generation, 1u);
      saw_stats = true;
    }
  }
  EXPECT_TRUE(saw_advise);
  EXPECT_TRUE(saw_stats);

  transport.close();
  loop.join();
  EXPECT_EQ(loop.served(), 2u);
  EXPECT_THROW(transport.post(advise), std::runtime_error);
}

TEST(RequestLoop, CloseUnblocksAnIdleLoop) {
  AdvisorService service(fast_config());
  InProcessTransport transport;
  RequestLoop loop(service, transport);
  loop.start();
  transport.close();
  loop.join();
  EXPECT_EQ(loop.served(), 0u);
  AdvisorResponse response;
  EXPECT_FALSE(transport.take_reply(response));
}

// --------------------------------------------------------------------------
// Replay-feed key projection + single-threaded feed accounting
// --------------------------------------------------------------------------

TEST(ReplayFeed, KeyProjectionUsesRecordedIds) {
  ReplayFeedConfig config;
  traces::WorkloadJob job;
  job.user = 5;
  job.group = 3;
  const AdvisorKey k = key_for_job(job, 999, config);
  EXPECT_EQ(k.vo, "vo3");
  EXPECT_EQ(k.user_class, "uc1");       // 5 % 2
  EXPECT_EQ(k.site, "lpc");             // (5 / 2) % 2 = 0
}

TEST(ReplayFeed, SyntheticPopulationIsDeterministicInTheIndex) {
  ReplayFeedConfig config;
  traces::WorkloadJob job;  // user = group = -1
  const AdvisorKey a = key_for_job(job, 4, config);
  const AdvisorKey b = key_for_job(job, 4, config);
  EXPECT_EQ(a, b);
  // index 4 → user 4, group 4 % 3 = 1.
  EXPECT_EQ(a.vo, "vo1");
  // Shard assignment is a pure function of the key.
  EXPECT_EQ(shard_for_key(a, config), shard_for_key(b, config));
  EXPECT_LT(shard_for_key(a, config), config.ingest_threads);
}

TEST(ReplayFeed, FeedsAScenarioAndAccountsEveryJob) {
  AdvisorService service(fast_config());
  traces::ScenarioConfig scenario;
  scenario.duration = 3600.0;
  scenario.base_rate = 0.1;  // ~360 jobs
  scenario.runtime_mean = 600.0;
  const traces::Workload week =
      traces::make_scenario("stationary-week", scenario);
  ReplayFeedConfig config;
  const ReplayFeedReport report = replay_feed(service, week, config);
  EXPECT_EQ(report.jobs, week.size());
  EXPECT_EQ(report.completed + report.outliers, report.jobs);
  EXPECT_GT(report.keys, 1u);
  ASSERT_EQ(report.per_thread.size(), 1u);
  EXPECT_EQ(report.per_thread[0], report.jobs);
  const AdvisorStats stats = service.stats();
  EXPECT_EQ(stats.observations, report.jobs);
  EXPECT_EQ(stats.keys, report.keys);
}

TEST(ReplayFeed, ValidatesConfig) {
  AdvisorService service(fast_config());
  const traces::Workload empty("empty");
  ReplayFeedConfig bad;
  bad.ingest_threads = 0;
  EXPECT_THROW(replay_feed(service, empty, bad), std::invalid_argument);
  ReplayFeedConfig bad2;
  bad2.latency_scale = 0.0;
  EXPECT_THROW(replay_feed(service, empty, bad2), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::serve
