#pragma once

// Replay-driven ingestion: maps a recorded workload (an SWF archive via
// traces::read_swf_file, a workload CSV, or a synthetic scenario week)
// onto advisor keys and streams it into an AdvisorService, so
// tuning-freshness-vs-load is measurable against realistic traffic.
//
// Key projection. Real SWF rows carry (user, group) ids; the grid-
// workload studies treat the group as the VO and slice users into
// classes (Medernach's per-user/per-VO arrival regimes). We project:
//
//   vo         = "vo" + group
//   user_class = "uc" + (user % 2)
//   site       = {"lpc", "nikhef"}[(user / 2) % 2]
//
// Synthetic scenarios carry no ids (user = group = -1); those jobs get a
// deterministic synthetic population (user = job index % kSyntheticUsers,
// group = user % 3) so keyed serving is exercisable without an archive
// on disk; its 24 users cover all 12 keys vo0-2 x lpc/nikhef x uc0/1.
// The probe-latency observation for each job is its runtime scaled by
// latency_scale; at or beyond the service's planner timeout it is
// ingested as an outlier (the probe-timeout convention).
//
// Determinism. With N ingest threads, keys are partitioned statically
// (FNV of the key, mod N) and every thread walks the *whole* workload in
// order, ingesting only its own keys — so each key sees its observations
// in workload order no matter how many threads run, and the service's
// final snapshot is byte-identical at any thread count (the determinism
// suite pins this at 1/2/8).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/advisor.hpp"
#include "traces/workload.hpp"

namespace gridsub::serve {

/// Users of the deterministic population for id-less (synthetic)
/// workloads.
inline constexpr std::size_t kSyntheticUsers = 24;

struct ReplayFeedConfig {
  std::size_t ingest_threads = 1;  ///< static key partition; >= 1
  /// Probe latency = job runtime * latency_scale (then clipped to the
  /// planner timeout as an outlier).
  double latency_scale = 1.0;
  /// Chaos seam: called by the owning worker before each ingest, with
  /// the shard and the job's *global* workload index. src/fault installs
  /// a deterministic stall keyed on the job index (not the shard, so the
  /// stalled set is thread-count invariant); the default does nothing.
  std::function<void(std::size_t shard, std::uint64_t job_index)> fault_hook;
};

struct ReplayFeedReport {
  std::uint64_t jobs = 0;       ///< workload jobs consumed
  std::uint64_t completed = 0;  ///< ingested as completed observations
  std::uint64_t outliers = 0;   ///< ingested as outliers (>= timeout)
  std::size_t keys = 0;         ///< distinct keys touched
  std::vector<std::uint64_t> per_thread;  ///< observations per ingest shard
};

/// The key the feed files `job` under (pure; exposed for tests and for
/// benches that need the key universe up front). `index` is the job's
/// position in the workload, used only for the synthetic population. The
/// projection is fixed: `config` does not enter it.
[[nodiscard]] AdvisorKey key_for_job(const traces::WorkloadJob& job,
                                     std::size_t index,
                                     const ReplayFeedConfig& config);

/// The ingest shard (< config.ingest_threads) that owns `key`.
[[nodiscard]] std::size_t shard_for_key(const AdvisorKey& key,
                                        const ReplayFeedConfig& config);

/// Streams the whole workload into the service (blocking; spawns
/// config.ingest_threads workers). Throws std::invalid_argument on a bad
/// config. The background refresher, if started, keeps swapping
/// snapshots while this runs.
ReplayFeedReport replay_feed(AdvisorService& service,
                             const traces::Workload& workload,
                             const ReplayFeedConfig& config = {});

}  // namespace gridsub::serve
