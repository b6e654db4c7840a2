#include "serve/replay_feed.hpp"

#include <array>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace gridsub::serve {

namespace {

// The key projection (header comment).
constexpr std::size_t kUserClasses = 2;
constexpr std::array<std::string_view, 2> kSites = {"lpc", "nikhef"};
constexpr std::size_t kSyntheticVos = 3;

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void validate(const ReplayFeedConfig& config) {
  if (config.ingest_threads == 0) {
    throw std::invalid_argument("replay_feed: ingest_threads == 0");
  }
  if (!(config.latency_scale > 0.0)) {
    throw std::invalid_argument("replay_feed: latency_scale <= 0");
  }
}

}  // namespace

AdvisorKey key_for_job(const traces::WorkloadJob& job, std::size_t index,
                       const ReplayFeedConfig& /*config*/) {
  std::size_t user = 0;
  std::size_t group = 0;
  if (job.user >= 0) {
    user = static_cast<std::size_t>(job.user);
  } else {
    user = index % kSyntheticUsers;
  }
  if (job.group >= 0) {
    group = static_cast<std::size_t>(job.group);
  } else {
    group = user % kSyntheticVos;
  }
  AdvisorKey key;
  key.vo = "vo" + std::to_string(group);
  key.user_class = "uc" + std::to_string(user % kUserClasses);
  key.site = kSites[(user / kUserClasses) % kSites.size()];
  return key;
}

std::size_t shard_for_key(const AdvisorKey& key,
                          const ReplayFeedConfig& config) {
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(key.vo, h);
  h = fnv1a(key.site, h);
  h = fnv1a(key.user_class, h);
  return static_cast<std::size_t>(h % config.ingest_threads);
}

ReplayFeedReport replay_feed(AdvisorService& service,
                             const traces::Workload& workload,
                             const ReplayFeedConfig& config) {
  validate(config);
  const double timeout = service.config().planner.timeout;
  const auto jobs = workload.jobs();

  ReplayFeedReport report;
  report.jobs = jobs.size();
  report.per_thread.assign(config.ingest_threads, 0);
  std::vector<std::uint64_t> completed(config.ingest_threads, 0);
  std::vector<std::uint64_t> outliers(config.ingest_threads, 0);

  // Every worker walks the whole log in order and ingests only the keys
  // its shard owns: per-key observation order is workload order at any
  // thread count (see header comment), which is what makes the final
  // snapshot byte-identical across 1/2/8-thread feeds.
  auto worker = [&](std::size_t shard) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const AdvisorKey key = key_for_job(jobs[i], i, config);
      if (shard_for_key(key, config) != shard) continue;
      if (config.fault_hook) config.fault_hook(shard, i);
      const double latency = jobs[i].runtime * config.latency_scale;
      if (latency >= 0.0 && latency < timeout) {
        service.ingest(key, latency);
        ++completed[shard];
      } else {
        service.ingest_outlier(key);
        ++outliers[shard];
      }
      ++report.per_thread[shard];
    }
  };

  if (config.ingest_threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(config.ingest_threads);
    for (std::size_t t = 0; t < config.ingest_threads; ++t) {
      threads.emplace_back(worker, t);
    }
    for (std::thread& t : threads) t.join();
  }

  for (std::size_t t = 0; t < config.ingest_threads; ++t) {
    report.completed += completed[t];
    report.outliers += outliers[t];
  }
  std::set<AdvisorKey> distinct;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    distinct.insert(key_for_job(jobs[i], i, config));
  }
  report.keys = distinct.size();
  return report;
}

}  // namespace gridsub::serve
