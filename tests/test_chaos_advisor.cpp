// Chaos wall for the advisor stack: the full serving path — replay-feed
// ingestion, background refresher, lock-free readers behind RequestLoops,
// an in-process transport — runs under every fault class at once, and the
// robustness contracts of docs/robustness.md must hold anyway:
//
//   * no torn advice: every response's stamp recomputes (advice_stamp);
//   * bounded staleness: no kOk ready answer is older than the bound,
//     and past the bound the service degrades loudly (kDegraded, counted);
//   * exact shutdown: the reply drain terminates with no lost replies
//     beyond the ones the loop itself counted;
//   * a paused refresh delays publication only: ingestion and stats()
//     carry on, and what they add stays pending for the next build;
//   * crash-restart: dump -> warm_start -> dump is byte-identical, even
//     for a state built under chaos; a corrupt, truncated or hostilely
//     nested dump, or one holding advice the service could never have
//     published, fails with RecoveryError; and every seeded mutant of a
//     real dump either fails so or round-trips byte for byte.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "serve/advisor.hpp"
#include "serve/replay_feed.hpp"
#include "serve/request_loop.hpp"
#include "stats/rng.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::fault {
namespace {

using serve::Advice;
using serve::advice_stamp;
using serve::AdvisorConfig;
using serve::AdvisorKey;
using serve::AdvisorRequest;
using serve::AdvisorResponse;
using serve::AdvisorService;
using serve::InProcessTransport;
using serve::RequestLoop;
using serve::ResponseStatus;

constexpr std::uint64_t kStalenessBound = 8;

online::OnlinePlannerConfig fast_planner() {
  online::OnlinePlannerConfig c;
  c.window = 80;
  c.min_observations = 30;
  c.refit_interval = 40;
  c.model_step = 50.0;
  c.timeout = 4000.0;
  return c;
}

AdvisorConfig chaos_config() {
  AdvisorConfig c;
  c.planner = fast_planner();
  c.refresh_pending = 16;
  c.staleness_bound = kStalenessBound;
  return c;
}

/// Every fault class at once — the schedule the chaos wall runs under.
FaultScheduleConfig chaos_schedule() {
  FaultScheduleConfig c;
  c.seed = 20090611;
  c.drop_request = 0.04;
  c.delay_request = 0.06;
  c.duplicate_request = 0.03;
  c.drop_reply = 0.02;
  c.transient_reply = 0.05;
  c.ingest_stall = 0.01;
  c.refresher_pause = 0.25;
  return c;
}

/// A two-hour diurnal slice (~1.4k jobs over the synthetic 24-user
/// population, ~60 observations per key): enough for every key to become
/// ready at fast_planner() settings — the same sizing the determinism
/// wall uses — while staying fast under the tsan preset.
const traces::Workload& chaos_workload() {
  static const traces::Workload w = [] {
    traces::ScenarioConfig scenario;
    scenario.duration = 7200.0;
    scenario.base_rate = 0.2;
    scenario.runtime_mean = 600.0;
    return traces::make_scenario("diurnal-week", scenario);
  }();
  return w;
}

/// The synthetic-population key universe the replay feed files jobs
/// under, reproduced through the same projection (key_for_job).
std::vector<AdvisorKey> key_universe() {
  const serve::ReplayFeedConfig feed;
  std::vector<AdvisorKey> keys;
  traces::WorkloadJob synthetic;  // user = group = -1
  for (std::size_t i = 0; i < serve::kSyntheticUsers; ++i) {
    const AdvisorKey key = serve::key_for_job(synthetic, i, feed);
    bool seen = false;
    for (const AdvisorKey& k : keys) seen = seen || k == key;
    if (!seen) keys.push_back(key);
  }
  return keys;
}

TEST(ChaosAdvisor, ServesUntornBoundedAdviceUnderEveryFaultClass) {
  FaultInjector injector(chaos_schedule());

  AdvisorConfig config = chaos_config();
  config.refresh_fault = injector.refresher_hook();
  AdvisorService service(config);
  service.start_refresher();

  InProcessTransport inner(256);
  FaultyTransport faulty(inner, injector);
  constexpr std::size_t kLoops = 2;
  constexpr std::size_t kPosters = 2;
  constexpr std::uint64_t kRequestsPerPoster = 400;
  std::vector<std::unique_ptr<RequestLoop>> loops;
  for (std::size_t i = 0; i < kLoops; ++i) {
    loops.push_back(std::make_unique<RequestLoop>(service, faulty));
    loops.back()->start();
  }

  // Taker: verify every response inline while the race is live.
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> overstale{0};
  std::atomic<std::uint64_t> taken{0};
  std::atomic<std::uint64_t> degraded_seen{0};
  std::thread taker([&] {
    AdvisorResponse r;
    while (inner.take_reply(r)) {
      taken.fetch_add(1, std::memory_order_relaxed);
      if (r.type != AdvisorRequest::Type::kAdvise) continue;
      if (r.status == ResponseStatus::kDeadlineExceeded ||
          r.status == ResponseStatus::kInternalError) {
        continue;  // no advice payload to check
      }
      if (advice_stamp(r.advice) != r.advice.stamp) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      if (r.status == ResponseStatus::kDegraded) {
        degraded_seen.fetch_add(1, std::memory_order_relaxed);
        if (!r.advice.degraded) torn.fetch_add(1, std::memory_order_relaxed);
      }
      if (r.status == ResponseStatus::kOk && r.advice.ready &&
          r.advice.generation - r.advice.entry_generation > kStalenessBound) {
        overstale.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Posters race the ingestion below; ids are partitioned per poster so
  // the injected request-fault set is a pure function of the schedule.
  const std::vector<AdvisorKey> keys = key_universe();
  std::vector<std::thread> posters;
  for (std::size_t p = 0; p < kPosters; ++p) {
    posters.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kRequestsPerPoster; ++i) {
        AdvisorRequest r;
        r.id = p * kRequestsPerPoster + i;
        if (i % 97 == 0) {
          r.type = AdvisorRequest::Type::kStats;
        } else {
          r.key = keys[(p + i) % keys.size()];
          if (i % 11 == 0) r.deadline = 2;  // some requests carry deadlines
        }
        inner.post(r);
      }
    });
  }

  // Ingest the whole workload under stalls while serving is in flight.
  serve::ReplayFeedConfig feed;
  feed.ingest_threads = 4;
  feed.fault_hook = injector.ingest_hook();
  const serve::ReplayFeedReport report =
      replay_feed(service, chaos_workload(), feed);

  for (std::thread& t : posters) t.join();
  inner.close();
  for (auto& loop : loops) loop->join();
  taker.join();
  service.stop_refresher();
  service.refresh_now();

  EXPECT_EQ(torn.load(), 0u) << "advice stamps must always recompute";
  EXPECT_EQ(overstale.load(), 0u)
      << "no kOk ready answer may exceed the staleness bound";
  EXPECT_EQ(report.jobs, chaos_workload().jobs().size());

  // Reply accounting is exact: everything posted was either answered,
  // dropped by a request/reply fault, or abandoned after retries.
  std::uint64_t served = 0;
  std::uint64_t lost = 0;
  for (const auto& loop : loops) {
    served += loop->served();
    lost += loop->lost_replies();
  }
  const std::uint64_t posted = kPosters * kRequestsPerPoster;
  const std::uint64_t dropped_requests =
      injector.count(FaultClass::kDropRequest);
  const std::uint64_t duplicated =
      injector.count(FaultClass::kDuplicateRequest);
  const std::uint64_t dropped_replies = injector.count(FaultClass::kDropReply);
  EXPECT_EQ(served + lost, posted + duplicated - dropped_requests);
  EXPECT_EQ(taken.load(), served - dropped_replies);

  // The run must actually have been chaotic to mean anything.
  EXPECT_GT(dropped_requests, 0u);
  EXPECT_GT(injector.count(FaultClass::kDelayRequest), 0u);
  EXPECT_GT(injector.count(FaultClass::kTransientReply), 0u);
  EXPECT_GT(injector.count(FaultClass::kIngestStall), 0u);
  EXPECT_GT(injector.count(FaultClass::kRefresherPause), 0u);

  // Every degraded response a client saw is on the service's books.
  const serve::AdvisorStats stats = service.stats();
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GE(stats.degraded, degraded_seen.load());

  // Crash-restart under chaos: the recovered dump is byte-identical.
  std::ostringstream before;
  service.dump_json(before);
  AdvisorService recovered(chaos_config());
  std::istringstream dump(before.str());
  recovered.warm_start(dump, "chaos-dump");
  std::ostringstream after;
  recovered.dump_json(after);
  EXPECT_EQ(before.str(), after.str());
}

// --------------------------------------------------------------------------
// Deterministic degradation: the staleness bound, exercised without races
// --------------------------------------------------------------------------

AdvisorKey key_a() { return {"vo0", "lpc", "uc0"}; }
AdvisorKey key_b() { return {"vo1", "nikhef", "uc1"}; }

/// Ingests enough observations for `key` to be ready at fast_planner()
/// settings.
void make_ready(AdvisorService& service, const AdvisorKey& key) {
  for (int i = 0; i < 40; ++i) {
    service.ingest(key, 500.0 + 10.0 * static_cast<double>(i % 7));
  }
}

TEST(ChaosAdvisor, StalenessBoundDegradesLoudlyAndDeterministically) {
  AdvisorService service(chaos_config());
  make_ready(service, key_a());
  ASSERT_EQ(service.refresh_now(), 1u);

  AdvisorService::Reader reader(service);
  const Advice fresh = reader.advise(key_a());
  ASSERT_TRUE(fresh.ready);
  EXPECT_FALSE(fresh.degraded);
  EXPECT_EQ(fresh.entry_generation, 1u);

  // Age key A past the bound: each round dirties only key B, so every
  // refresh advances the generation while A's entry stays at 1.
  for (std::uint64_t g = 2; g <= 1 + kStalenessBound; ++g) {
    service.ingest(key_b(), 700.0);
    ASSERT_EQ(service.refresh_now(), g);
    const Advice a = reader.advise(key_a());
    EXPECT_TRUE(a.ready);
    EXPECT_FALSE(a.degraded) << "within the bound at generation " << g;
  }

  // One more generation tips A over the bound: degraded fallback, loudly.
  service.ingest(key_b(), 700.0);
  ASSERT_EQ(service.refresh_now(), 2 + kStalenessBound);
  const Advice stale = reader.advise(key_a());
  EXPECT_TRUE(stale.degraded);
  EXPECT_FALSE(stale.ready);  // the documented fallback, not fitted state
  EXPECT_DOUBLE_EQ(stale.t_inf, AdvisorService::kFallbackTInf);
  EXPECT_EQ(advice_stamp(stale), stale.stamp);

  // Key B was just rebuilt: still served fresh.
  const Advice b = reader.advise(key_b());
  EXPECT_FALSE(b.degraded);

  const serve::AdvisorStats stats = service.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_GE(stats.lookups, 4u);

  // The operator view agrees: A is the stalest entry, nothing is backlogged,
  // and the degraded rate counts the one degraded lookup.
  EXPECT_EQ(stats.generation, 2 + kStalenessBound);
  EXPECT_EQ(stats.max_entry_age, 1 + kStalenessBound);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GT(static_cast<double>(stats.degraded) /
                static_cast<double>(stats.lookups),
            0.0);
}

TEST(ChaosAdvisor, RequestLoopSurfacesDegradationInTheTaxonomy) {
  AdvisorService service(chaos_config());
  make_ready(service, key_a());
  service.refresh_now();
  for (std::uint64_t g = 0; g < 1 + kStalenessBound; ++g) {
    service.ingest(key_b(), 700.0);
    service.refresh_now();
  }

  InProcessTransport transport(8);
  RequestLoop loop(service, transport);
  loop.start();
  AdvisorRequest req;
  req.id = 1;
  req.key = key_a();
  transport.post(req);
  transport.close();
  AdvisorResponse resp;
  ASSERT_TRUE(transport.take_reply(resp));
  loop.join();

  EXPECT_EQ(resp.status, ResponseStatus::kDegraded);
  EXPECT_TRUE(resp.advice.degraded);
  EXPECT_EQ(loop.degraded(), 1u);
}

// --------------------------------------------------------------------------
// A paused refresh delays publication only
// --------------------------------------------------------------------------

TEST(ChaosAdvisor, PausedRefreshBlocksNeitherIngestNorStats) {
  constexpr std::uint64_t kIngests = 200;
  // Bounded so that a build which blocks ingestion fails the test instead
  // of hanging it.
  constexpr auto kDeadline = std::chrono::seconds(5);
  std::mutex mu;
  std::condition_variable cv;
  bool paused = false;
  bool released = false;  // set once all ingests and stats() returned
  bool saw_all = false;

  AdvisorConfig config = chaos_config();
  config.refresh_fault = [&](std::uint64_t generation) {
    if (generation != 1) return;
    std::unique_lock<std::mutex> lock(mu);
    paused = true;
    cv.notify_all();
    saw_all = cv.wait_for(lock, kDeadline, [&] { return released; });
  };
  AdvisorService service(config);
  service.ingest(key_a(), 500.0);  // the one observation the build folds

  std::uint64_t published = 0;
  std::thread refresher([&] { published = service.refresh_now(); });
  bool pause_seen = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    pause_seen = cv.wait_for(lock, kDeadline, [&] { return paused; });
  }
  // While the build is paused: ingest into the very key it is about to
  // read (refits included), then read the serving metadata.
  for (std::uint64_t i = 0; i < kIngests; ++i) {
    service.ingest(key_a(), 500.0 + 10.0 * static_cast<double>(i % 7));
  }
  const serve::AdvisorStats during = service.stats();
  {
    const std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  refresher.join();

  EXPECT_TRUE(pause_seen);
  EXPECT_TRUE(saw_all) << "ingest or stats() waited for a paused refresh";
  EXPECT_EQ(during.generation, 0u) << "nothing is published mid-pause";
  EXPECT_EQ(during.pending, 1 + kIngests);
  EXPECT_EQ(published, 1u);

  // The paused build folded only the observation pending when it began;
  // the ones ingested meanwhile stay pending until the next build.
  EXPECT_EQ(service.stats().pending, kIngests);
  EXPECT_EQ(service.refresh_now(), 2u);
  EXPECT_EQ(service.stats().pending, 0u);
  EXPECT_EQ(service.stats().observations, 1 + kIngests);
}

// --------------------------------------------------------------------------
// Crash-restart recovery
// --------------------------------------------------------------------------

std::string dump_of(const AdvisorService& service) {
  std::ostringstream os;
  service.dump_json(os);
  return os.str();
}

/// A service with replayed state and a final published snapshot.
void build_state(AdvisorService& service) {
  serve::ReplayFeedConfig feed;
  feed.ingest_threads = 2;
  (void)replay_feed(service, chaos_workload(), feed);
  service.refresh_now();
}

TEST(ChaosAdvisor, WarmStartRoundTripsByteIdentically) {
  AdvisorService crashed(chaos_config());
  build_state(crashed);
  const std::string before = dump_of(crashed);
  ASSERT_NE(before.find("\"ready\": true"), std::string::npos);

  AdvisorService restarted(chaos_config());
  std::istringstream dump(before);
  restarted.warm_start(dump, "test-dump");
  EXPECT_EQ(dump_of(restarted), before);

  // Recovered advice is served, stamped, and marked ready.
  AdvisorService::Reader reader(restarted);
  const Advice a = reader.advise(key_a());
  EXPECT_TRUE(a.ready);
  EXPECT_EQ(advice_stamp(a), a.stamp);
  EXPECT_EQ(a.generation, 1u);

  // A second round-trip is a fixpoint.
  AdvisorService again(chaos_config());
  std::istringstream dump2(dump_of(restarted));
  again.warm_start(dump2, "second-dump");
  EXPECT_EQ(dump_of(again), before);
}

TEST(ChaosAdvisor, SnapshotFileRoundTripMatchesInMemoryDump) {
  const auto dir =
      std::filesystem::temp_directory_path() / "gridsub_test_chaos";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "advisor.snapshot.json").string();
  std::filesystem::remove(path);

  AdvisorService crashed(chaos_config());
  build_state(crashed);
  crashed.save_snapshot_file(path);

  AdvisorService restarted(chaos_config());
  restarted.warm_start_file(path);
  EXPECT_EQ(dump_of(restarted), dump_of(crashed));
}

TEST(ChaosAdvisor, WarmStartRejectsTruncatedDumps) {
  AdvisorService source(chaos_config());
  build_state(source);
  const std::string full = dump_of(source);

  AdvisorService fresh(chaos_config());
  std::istringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(fresh.warm_start(truncated, "truncated"), serve::RecoveryError);
}

TEST(ChaosAdvisor, WarmStartRejectsDeeplyNestedDumps) {
  // gridsub's writers nest at most 5 levels; a hostile dump nested 50,000
  // deep must fail with the typed error, not overflow the stack. The
  // parser stops at the 65th opening bracket and names its byte offset.
  std::string objects;
  for (int i = 0; i < 50000; ++i) objects += "{\"a\":";
  const std::pair<std::string, std::size_t> dumps[] = {
      {std::string(50000, '['), 64}, {objects, 64 * 5}};
  for (const auto& [text, offset] : dumps) {
    AdvisorService fresh(chaos_config());
    std::istringstream dump(text);
    try {
      fresh.warm_start(dump, "nested");
      ADD_FAILURE() << "warm_start accepted a 50,000-deep dump";
    } catch (const serve::RecoveryError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "nesting deeper than 64 levels (byte " +
                    std::to_string(offset) + ")"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ChaosAdvisor, WarmStartRejectsMismatchedFallback) {
  AdvisorService source(chaos_config());
  build_state(source);
  std::string full = dump_of(source);
  // A dump whose fallback disagrees with the service's.
  const std::string field = "\"fallback_t_inf\": 900,";
  const std::size_t at = full.find(field);
  ASSERT_NE(at, std::string::npos);
  full.replace(at, field.size(), "\"fallback_t_inf\": 999,");

  AdvisorService fresh(chaos_config());
  std::istringstream dump(full);
  EXPECT_THROW(fresh.warm_start(dump, "mismatched"), serve::RecoveryError);
}

/// A one-key dump whose advice is of kind `kind`, with the fields
/// `fields` (the text between "kind" and the entry's closing brace).
std::string one_key_dump(const std::string& kind, const std::string& fields) {
  return "{\"advisor\": {\"fallback_t_inf\": 900, \"observations\": 40, "
         "\"keys\": [{\"vo\": \"vo0\", \"site\": \"lpc\", "
         "\"user_class\": \"uc0\", \"ready\": true, \"drifted\": false, "
         "\"observations\": 40, \"refits\": 1, \"drift_statistic\": 0, "
         "\"outlier_ratio\": 0, \"kind\": \"" +
         kind + "\", " + fields + "}]}}";
}

TEST(ChaosAdvisor, WarmStartRejectsAdviceTheServiceCouldNotPublish) {
  // {kind, fields, b served}; the delayed entry sits on t_inf = 2*t0.
  const std::array<std::string, 3> good[] = {
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 2, \"expectation\": 400, "
       "\"delta_cost\": 1.5",
       "2"},
      {"single-resubmission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 1, \"expectation\": 400, "
       "\"delta_cost\": 1",
       "1"},
      {"delayed-resubmission",
       "\"t0\": 400, \"t_inf\": 800, \"b\": 1, \"expectation\": 400, "
       "\"delta_cost\": 1.2",
       "1"},
  };
  for (const auto& [kind, fields, b] : good) {
    AdvisorService fresh(chaos_config());
    std::istringstream dump(one_key_dump(kind, fields));
    ASSERT_NO_THROW(fresh.warm_start(dump, "good")) << kind;
    const Advice advice = AdvisorService::Reader(fresh).advise(key_a());
    EXPECT_TRUE(advice.ready) << kind;
    EXPECT_EQ(core::to_string(advice.kind), kind);
    EXPECT_EQ(std::to_string(advice.b), b) << kind;
  }
  // {kind, fields, key the error must name}.
  const std::array<std::string, 3> bad[] = {
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 4294967295, "
       "\"expectation\": 400, \"delta_cost\": 1.5",
       "b"},
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": null, \"b\": 0, \"expectation\": -3, "
       "\"delta_cost\": 1.5",
       "t_inf"},
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 0, \"expectation\": 400, "
       "\"delta_cost\": 1.5",
       "b"},
      {"multiple-submission",
       "\"t0\": -1, \"t_inf\": 600, \"b\": 2, \"expectation\": 400, "
       "\"delta_cost\": 1.5",
       "t0"},
      {"multiple-submission",
       "\"t0\": null, \"t_inf\": 600, \"b\": 2, \"expectation\": 400, "
       "\"delta_cost\": 1.5",
       "t0"},
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 0, \"b\": 2, \"expectation\": 400, "
       "\"delta_cost\": 1.5",
       "t_inf"},
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 2, \"expectation\": -3, "
       "\"delta_cost\": 1.5",
       "expectation"},
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 2, \"expectation\": null, "
       "\"delta_cost\": 1.5",
       "expectation"},
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 2, \"expectation\": 400, "
       "\"delta_cost\": -0.5",
       "delta_cost"},
      {"multiple-submission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 2, \"expectation\": 400, "
       "\"delta_cost\": null",
       "delta_cost"},
      {"single-resubmission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 7, \"expectation\": 400, "
       "\"delta_cost\": 1",
       "b"},
      {"delayed-resubmission",
       "\"t0\": 700, \"t_inf\": 600, \"b\": 1, \"expectation\": 400, "
       "\"delta_cost\": 1.2",
       "t_inf"},
      {"delayed-resubmission",
       "\"t0\": 0, \"t_inf\": 600, \"b\": 1, \"expectation\": 400, "
       "\"delta_cost\": 1.2",
       "t0"},
  };
  for (const auto& [kind, fields, key] : bad) {
    AdvisorService fresh(chaos_config());
    std::istringstream dump(one_key_dump(kind, fields));
    try {
      fresh.warm_start(dump, "hand-made");
      ADD_FAILURE() << "warm_start accepted " << kind << ": " << fields;
    } catch (const serve::RecoveryError& e) {
      EXPECT_NE(std::string(e.what()).find("key \"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ChaosAdvisor, WarmStartSurvivesSeededMutations) {
  // Byte flips, deletions, duplications and splices of a real dump, drawn
  // from one SplitMix64 stream: each mutant either fails with
  // RecoveryError, or is accepted and re-dumps to bytes that warm-start
  // back to the same bytes.
  AdvisorService source(chaos_config());
  build_state(source);
  const std::string dump = dump_of(source);
  std::uint64_t state = 20090611;
  const auto draw = [&state](std::size_t n) {
    return static_cast<std::size_t>(stats::splitmix64(state) % n);
  };
  constexpr int kMutants = 2000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = dump;
    for (std::size_t edits = 1 + draw(3); edits > 0 && !text.empty();
         --edits) {
      const std::size_t at = draw(text.size());
      const std::size_t len = 1 + draw(16);
      switch (draw(4)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << draw(8)));
          break;
        case 1:  // delete a span
          text.erase(at, len);
          break;
        case 2:  // duplicate a span in place
          text.insert(at, text.substr(at, len));
          break;
        default:  // splice a span of the dump over another
          text.replace(at, len, dump.substr(draw(dump.size()), len));
          break;
      }
    }
    AdvisorService first(chaos_config());
    std::istringstream in(text);
    try {
      first.warm_start(in, "mutant");
    } catch (const serve::RecoveryError&) {
      continue;
    }
    ++accepted;
    const std::string redump = dump_of(first);
    AdvisorService second(chaos_config());
    std::istringstream again(redump);
    ASSERT_NO_THROW(second.warm_start(again, "re-dump")) << "mutant " << i;
    ASSERT_EQ(dump_of(second), redump) << "mutant " << i;
  }
  // Both outcomes occur, so neither half of the invariant is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutants);
}

TEST(ChaosAdvisor, WarmStartRejectsNonVirginServices) {
  AdvisorService source(chaos_config());
  build_state(source);
  const std::string full = dump_of(source);

  AdvisorService used(chaos_config());
  used.ingest(key_a(), 500.0);  // any prior state disqualifies recovery
  std::istringstream dump(full);
  EXPECT_THROW(used.warm_start(dump, "non-virgin"), serve::RecoveryError);
}

}  // namespace
}  // namespace gridsub::fault
