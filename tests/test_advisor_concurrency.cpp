// Forced-contention suite for the advisor's snapshot publication
// (concurrency label; runs under the tsan preset in CI): 8 readers
// hammering advise() across snapshot swaps while 2 writers ingest and
// force additional swaps, 4 writers sharing one key's lock, plus request
// loops serving a shared transport under concurrent posters. Assertions
// are the user-visible invariants:
// no torn reads (every answer's stamp recomputes — it was copied from
// exactly one published entry), generations non-decreasing per reader,
// and a final snapshot that is byte-identical no matter how many readers
// were hammering the service while it was built.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/advisor.hpp"
#include "serve/request_loop.hpp"

namespace gridsub::serve {
namespace {

online::OnlinePlannerConfig fast_planner() {
  online::OnlinePlannerConfig c;
  c.window = 80;
  c.min_observations = 30;
  c.refit_interval = 100;
  c.model_step = 50.0;
  c.timeout = 4000.0;
  return c;
}

AdvisorConfig fast_config() {
  AdvisorConfig c;
  c.planner = fast_planner();
  c.refresh_pending = 32;
  return c;
}

constexpr std::size_t kKeys = 8;
constexpr int kObsPerKey = 240;

AdvisorKey nth_key(std::size_t i) {
  return AdvisorKey{"vo" + std::to_string(i % 3), "site",
                    "uc" + std::to_string(i)};
}

/// Two writers own disjoint key halves (per-key order stays
/// deterministic) and force a snapshot swap every 64 observations on top
/// of whatever the background refresher publishes. A forced swap ingests
/// its 64th observation and calls refresh_now() under `forcing`, so it
/// either publishes or finds that observation already folded by a
/// background swap inside that same window: one distinct swap per forced
/// swap whatever the schedule (refresh_now() publishes nothing when
/// nothing is pending).
void run_writers(AdvisorService& service) {
  std::mutex forcing;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 2; ++w) {
    writers.emplace_back([&service, &forcing, w] {
      int since_swap = 0;
      for (int round = 0; round < kObsPerKey; ++round) {
        for (std::size_t k = w; k < kKeys; k += 2) {
          const double base = 200.0 + 40.0 * static_cast<double>(k);
          const double latency = base + static_cast<double>(round % 30);
          if (++since_swap < 64) {
            service.ingest(nth_key(k), latency);
            continue;
          }
          since_swap = 0;
          const std::lock_guard<std::mutex> lock(forcing);
          service.ingest(nth_key(k), latency);
          service.refresh_now();
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
}

/// Runs the full contended scenario with `n_readers` hammering advise()
/// throughout, then drains and returns the final canonical snapshot.
std::string run_contended(std::size_t n_readers,
                          std::uint64_t* lookups_out = nullptr) {
  AdvisorService service(fast_config());
  service.start_refresher();

  std::atomic<bool> done{false};
  std::atomic<std::size_t> started{0};  ///< readers past their first lookup
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      AdvisorService::Reader reader(service);
      std::uint64_t last_generation = 0;
      std::uint64_t count = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const Advice a = reader.advise(nth_key((r + count) % kKeys));
        // Torn-read canary: the stamp only ever exists writer-side for
        // one published (payload, entry_generation) combination.
        if (advice_stamp(a) != a.stamp) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (a.generation < last_generation ||
            a.entry_generation > a.generation) {
          regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_generation = a.generation;
        if (++count == 1) started.fetch_add(1, std::memory_order_relaxed);
      }
      lookups.fetch_add(count, std::memory_order_relaxed);
    });
  }

  // The writers start once every reader has answered a lookup, so the
  // readers overlap the swaps whatever the schedule.
  while (started.load(std::memory_order_relaxed) < n_readers) {
    std::this_thread::yield();
  }
  run_writers(service);
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);

  service.stop_refresher();
  service.refresh_now();
  const AdvisorStats stats = service.stats();
  EXPECT_EQ(stats.observations, kKeys * static_cast<std::uint64_t>(kObsPerKey));
  EXPECT_GE(stats.swaps, kKeys * kObsPerKey / 64);  // forced swaps at least
  EXPECT_EQ(stats.pending, 0u);
  if (lookups_out != nullptr) *lookups_out = lookups.load();

  std::ostringstream os;
  service.dump_json(os);
  return os.str();
}

TEST(AdvisorConcurrency, ReadersAcrossSwapsSeeUntornMonotoneAnswers) {
  std::uint64_t lookups = 0;
  const std::string json = run_contended(8, &lookups);
  EXPECT_GT(lookups, 0u);
  EXPECT_NE(json.find("\"ready\": true"), std::string::npos);
}

TEST(AdvisorConcurrency, FinalSnapshotByteIdenticalRegardlessOfReaders) {
  const std::string quiet = run_contended(0);
  const std::string hammered = run_contended(8);
  EXPECT_EQ(quiet, hammered);
}

/// The unsigned `field` of the dump entry whose user class is `uc`.
std::uint64_t entry_field(const std::string& json, const std::string& uc,
                          const std::string& field) {
  const std::size_t entry = json.find("\"user_class\": \"" + uc + "\"");
  const std::string name = "\"" + field + "\": ";
  const std::size_t at = json.find(name, entry);
  if (entry == std::string::npos || at == std::string::npos) {
    ADD_FAILURE() << "no " << field << " for user class " << uc;
    return 0;
  }
  return std::stoull(json.substr(at + name.size()));
}

TEST(AdvisorConcurrency, WritersSharingOneKeyLoseNoObservation) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kObsEach = 300;  // per writer, into each of 2 keys
  const AdvisorKey shared{"vo0", "site", "shared"};
  const auto own = [](std::size_t w) {
    return AdvisorKey{"vo1", "site", "own" + std::to_string(w)};
  };

  AdvisorService service(fast_config());
  service.start_refresher();
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      AdvisorService::Reader reader(service);
      std::uint64_t last_generation = 0;
      for (std::size_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        const Advice a = reader.advise(i % 2 == 0 ? shared : own(r));
        if (advice_stamp(a) != a.stamp) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (a.generation < last_generation ||
            a.entry_generation > a.generation) {
          regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_generation = a.generation;
      }
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kObsEach; ++i) {
        service.ingest(shared, 250.0 + static_cast<double>((i + 7 * w) % 30));
        service.ingest(own(w), 400.0 + static_cast<double>(i % 30));
        if (i % 64 == 63) service.refresh_now();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  service.stop_refresher();
  service.refresh_now();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);
  const AdvisorStats stats = service.stats();
  EXPECT_EQ(stats.observations, 2 * kWriters * kObsEach);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.keys, kWriters + 1);
  std::ostringstream os;
  service.dump_json(os);
  const std::string json = os.str();
  EXPECT_EQ(entry_field(json, "shared", "observations"), kWriters * kObsEach);
  for (std::size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(entry_field(json, "own" + std::to_string(w), "observations"),
              kObsEach);
  }

  // The refit cadence counts observations, whatever their interleaving.
  AdvisorService alone(fast_config());
  for (std::size_t i = 0; i < kWriters * kObsEach; ++i) {
    alone.ingest(shared, 250.0 + static_cast<double>(i % 30));
  }
  alone.refresh_now();
  std::ostringstream single;
  alone.dump_json(single);
  EXPECT_EQ(entry_field(json, "shared", "refits"),
            entry_field(single.str(), "shared", "refits"));
}

TEST(AdvisorConcurrency, ReaderSlotsRecycleUnderChurn) {
  AdvisorService service(fast_config());
  // Register/destroy readers from several threads while lookups run:
  // slot claim/release is all CAS traffic, no locks to leak.
  std::vector<std::thread> churners;
  for (std::size_t t = 0; t < 4; ++t) {
    churners.emplace_back([&service] {
      for (int i = 0; i < 200; ++i) {
        AdvisorService::Reader reader(service);
        (void)reader.advise(AdvisorKey{"vo0", "site", "uc0"});
      }
    });
  }
  for (std::thread& t : churners) t.join();
  EXPECT_EQ(service.stats().readers, 0u);
}

TEST(AdvisorConcurrency, RequestLoopsShareATransportUnderContention) {
  AdvisorService service(fast_config());
  service.start_refresher();
  InProcessTransport transport(256);
  RequestLoop loop_a(service, transport);
  RequestLoop loop_b(service, transport);
  loop_a.start();
  loop_b.start();

  constexpr std::size_t kPosters = 4;
  constexpr std::uint64_t kPostsEach = 200;
  std::thread writer([&service] {
    for (int round = 0; round < 60; ++round) {
      for (std::size_t k = 0; k < kKeys; ++k) {
        service.ingest(nth_key(k),
                       300.0 + static_cast<double>((round + 7 * k) % 30));
      }
    }
  });
  std::vector<std::thread> posters;
  for (std::size_t p = 0; p < kPosters; ++p) {
    posters.emplace_back([&transport, p] {
      for (std::uint64_t i = 0; i < kPostsEach; ++i) {
        AdvisorRequest request;
        request.type = AdvisorRequest::Type::kAdvise;
        request.id = p * kPostsEach + i;
        request.key = nth_key(i % kKeys);
        transport.post(request);
      }
    });
  }

  std::uint64_t replies = 0;
  std::uint64_t torn = 0;
  AdvisorResponse response;
  while (replies < kPosters * kPostsEach) {
    ASSERT_TRUE(transport.take_reply(response));
    if (advice_stamp(response.advice) != response.advice.stamp) ++torn;
    ++replies;
  }
  for (std::thread& t : posters) t.join();
  writer.join();
  transport.close();
  loop_a.join();
  loop_b.join();
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(loop_a.served() + loop_b.served(), kPosters * kPostsEach);
}

}  // namespace
}  // namespace gridsub::serve
