#pragma once

// Strategy-advisor service (ROADMAP "long-lived strategy-advisor
// service"): the paper's end product turned into a server-shaped
// subsystem. Probe-latency observations stream in per (VO, site,
// user-class) key — the keyed split the LPC workload analysis motivates:
// per-user/per-VO arrival regimes differ enough that one global
// recommendation is wrong — and each key maintains its own
// online::OnlinePlanner (sliding window, periodic refit, drift flag).
// Clients ask "what (t0, t∞, b) should I use right now?" via advise().
//
// The serving side is built around *immutable snapshot publication*:
//
//   * A refresher (background thread or explicit refresh_now()) folds the
//     per-key planner states into an AdvisorSnapshot — a sorted, immutable
//     value — and publishes it with one atomic pointer swap. Snapshots are
//     generation-numbered; generations are strictly monotone.
//   * Readers never take a lock. advise() pins the current snapshot with a
//     hazard-pointer slot (one cache line per registered Reader), binary-
//     searches the sorted entries, and copies out a plain-old-data Advice.
//     The service locks, the refresher, and snapshot reclamation are all
//     invisible to the advise() path.
//   * Writers never refit under a shared lock. Each key's planner sits
//     behind its own mutex, so a refit (a full StrategyPlanner::recommend,
//     run inline by the ingest that triggers it) stalls only that key.
//     The service mutex mu_ guards the key map and the counters and is
//     held for bookkeeping only; a snapshot build holds a separate build
//     mutex and visits the keys one lock at a time. Lock order is
//     build_mu_ -> mu_ and build_mu_ -> key lock; mu_ and a key lock are
//     never held together, so stats(), health() and dump_json() never
//     wait behind a refit.
//   * Reclamation is writer-side: retired snapshots are freed on the next
//     swap once no hazard slot still pins them, so a reader mid-lookup
//     keeps its snapshot alive without reference counting.
//
// Every Advice carries a writer-side FNV stamp over its payload fields;
// recomputing it reader-side (advice_stamp) proves the answer was copied
// from exactly one published entry — the torn-read canary the concurrency
// suite leans on.
//
// Determinism contract (docs/architecture.md): the *final* snapshot after
// ingestion has drained and a last refresh ran is a pure function of the
// per-key observation sequences — independent of ingest thread count,
// reader count, and how often the background refresher swapped along the
// way. write_json() therefore emits only that deterministic advice
// payload; serving metadata (generation, staleness) lives in stats().

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cost.hpp"
#include "core/strategy.hpp"
#include "core/thread_annotations.hpp"
#include "online/online_planner.hpp"

namespace gridsub::serve {

/// Routing key for keyed planner state. Ordered lexicographically
/// (vo, site, user_class) so snapshots and JSON dumps are deterministic.
struct AdvisorKey {
  std::string vo;
  std::string site;
  std::string user_class;

  friend bool operator==(const AdvisorKey&, const AdvisorKey&) = default;
  friend auto operator<=>(const AdvisorKey&, const AdvisorKey&) = default;
};

struct AdvisorConfig {
  /// Per-key planner settings (window, refit cadence, drift threshold).
  online::OnlinePlannerConfig planner;
  /// Timeout of the documented fallback: until a key has enough
  /// observations to be ready, advise() returns plain single resubmission
  /// at this conservative timeout (the paper's untuned behaviour).
  double fallback_t_inf = 900.0;
  /// Pending observations that wake the background refresher. Larger
  /// values batch more ingestion per snapshot swap (higher staleness,
  /// fewer rebuilds).
  std::size_t refresh_pending = 64;
  /// Staleness bound, in generations (0 = unbounded). When the published
  /// snapshot is `staleness_bound` generations newer than the refresh
  /// that last rebuilt a key's entry, advise() stops serving that entry
  /// and returns the documented degraded fallback instead (Advice
  /// .degraded = true, counted in stats().degraded): bounded-staleness
  /// advice beats confidently serving a recommendation the stream has
  /// long since moved past. See docs/robustness.md.
  std::uint64_t staleness_bound = 0;
  /// Chaos seam: called just before each refresh builds generation `g`,
  /// with only the build lock held: a pause here delays publication, not
  /// ingestion or stats(). src/fault installs a deterministic pause; the
  /// default does nothing. Must not call back into the service.
  std::function<void(std::uint64_t)> refresh_fault;
};

/// What advise() hands back: a plain copyable value, no allocation.
struct Advice {
  bool ready = false;    ///< false = fallback (key unknown or not ready)
  bool drifted = false;  ///< planner drift flag at snapshot build time
  /// True when a *ready* entry was refused for exceeding the staleness
  /// bound and this is the degraded fallback instead. Serving metadata
  /// like `generation` — set reader-side, excluded from the stamp and
  /// from write_json().
  bool degraded = false;
  core::StrategyKind kind = core::StrategyKind::kSingleResubmission;
  double t0 = 0.0;
  double t_inf = 0.0;
  int b = 1;
  double expectation = 0.0;
  double delta_cost = 1.0;
  /// Generation of the snapshot that answered (strictly monotone per
  /// service; a reader observes a non-decreasing sequence).
  std::uint64_t generation = 0;
  /// Generation whose refresh last rebuilt this entry (0 = fallback).
  std::uint64_t entry_generation = 0;
  /// Writer-side FNV-1a over the payload fields above (advice_stamp);
  /// recompute to prove the read was not torn across a swap.
  std::uint64_t stamp = 0;
};

/// Recomputes the writer-side stamp from the payload fields (everything
/// except `generation` and `stamp` itself, which vary per snapshot while
/// the entry is reused). Equal to `a.stamp` for any untorn Advice.
[[nodiscard]] std::uint64_t advice_stamp(const Advice& a);

/// One key's published state inside a snapshot.
struct AdvisorEntry {
  AdvisorKey key;
  Advice advice;                    ///< payload advise() copies out
  std::uint64_t observations = 0;   ///< per-key ingested total at build
  std::uint64_t refits = 0;         ///< planner refits at build
  double drift_statistic = 0.0;
  double outlier_ratio = 0.0;
};

/// Immutable published state: sorted entries + the fallback advice.
/// Never mutated after publication — readers share it without locks.
struct AdvisorSnapshot {
  std::uint64_t generation = 0;
  std::uint64_t observations = 0;  ///< total observations folded in
  Advice fallback;                 ///< returned for unknown/not-ready keys
  std::vector<AdvisorEntry> entries;  ///< sorted by key

  /// Binary search; nullptr when the key has no entry.
  [[nodiscard]] const AdvisorEntry* find(const AdvisorKey& key) const;

  /// Deterministic advice payload as JSON (sorted keys, to_chars
  /// numbers). Serving metadata — generation, staleness — is excluded on
  /// purpose: the dump must be byte-identical however many ingest threads
  /// and refresher swaps produced the state (see header comment).
  void write_json(std::ostream& os) const;
};

/// Serving metadata, read under the service mutex (not the advise() path;
/// never waits for a refit).
struct AdvisorStats {
  std::uint64_t generation = 0;        ///< latest published generation
  std::uint64_t swaps = 0;             ///< snapshot publications so far
  std::uint64_t observations = 0;      ///< total observations ingested
  std::uint64_t pending = 0;           ///< ingested since the last swap
  std::uint64_t staleness_last = 0;    ///< pending folded by the last swap
  std::uint64_t staleness_max = 0;     ///< max pending any swap folded
  std::size_t keys = 0;                ///< keyed planners registered
  std::size_t readers = 0;             ///< live Reader registrations
  std::uint64_t lookups = 0;   ///< advise() calls across all Readers ever
  std::uint64_t degraded = 0;  ///< lookups answered with the degraded
                               ///< fallback (staleness bound exceeded)
};

/// Liveness-oriented view for operators and the chaos wall: is the
/// service keeping up, and how much of the traffic is degraded?
struct AdvisorHealth {
  std::uint64_t generation = 0;   ///< latest published generation
  std::uint64_t backlog = 0;      ///< observations ingested, not yet folded
  std::size_t keys = 0;           ///< entries in the published snapshot
  /// Generations since the stalest published entry was rebuilt (0 when
  /// the snapshot is empty). Under the staleness bound this is also the
  /// worst age advise() will serve as fresh.
  std::uint64_t max_entry_age = 0;
  std::uint64_t lookups = 0;   ///< as in AdvisorStats
  std::uint64_t degraded = 0;  ///< as in AdvisorStats
  /// degraded / lookups (0 when no lookups yet).
  double degraded_rate = 0.0;
};

/// Raised by warm_start(): corrupt, truncated, too deeply nested, or
/// mismatched recovery dump, or a service that already holds state. The
/// parser's exp::JsonParseError is rethrown as this type, so callers
/// catch one error for every recovery failure.
class RecoveryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class AdvisorService {
 public:
  /// Hazard-slot capacity: the hard cap on concurrently registered
  /// Readers. One cache line each; raise freely if a deployment needs
  /// more reader threads.
  static constexpr std::size_t kMaxReaders = 64;

  explicit AdvisorService(AdvisorConfig config = {});

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// Stops the refresher and frees every snapshot. All Readers must have
  /// been destroyed first (checked).
  ~AdvisorService();

  [[nodiscard]] const AdvisorConfig& config() const { return config_; }

  // --- ingestion (any thread) --------------------------------------------
  //
  // Safe from any thread, several threads on one key included. Observations
  // for one key are folded in call order under that key's lock; a refit
  // they trigger runs inline on the calling thread and blocks only that
  // key. *Per-key* ordering across concurrent ingest threads is the
  // caller's contract for determinism (the replay feed partitions keys
  // statically across its threads, so each key only ever sees one thread).
  // Latency bounds are the planner's: [0, planner.timeout) or
  // std::invalid_argument.

  void ingest(const AdvisorKey& key, double latency) GRIDSUB_EXCLUDES(mu_);
  void ingest_outlier(const AdvisorKey& key) GRIDSUB_EXCLUDES(mu_);

  // --- refresh -----------------------------------------------------------

  /// Starts the background refresher: it wakes whenever
  /// `config().refresh_pending` observations accumulated and publishes a
  /// fresh snapshot. Idempotent.
  void start_refresher() GRIDSUB_EXCLUDES(mu_);

  /// Stops and joins the background refresher (pending observations stay
  /// pending). Idempotent; also called by the destructor.
  void stop_refresher() GRIDSUB_EXCLUDES(build_mu_, mu_);

  /// Builds and publishes a snapshot now if anything is pending or dirty;
  /// returns the published generation (unchanged when nothing to do).
  std::uint64_t refresh_now() GRIDSUB_EXCLUDES(build_mu_, mu_);

  // --- lock-free lookups -------------------------------------------------

 private:
  struct HazardSlot;  // defined below; Reader holds a pointer to one

 public:

  /// A registered reader: holds one hazard slot for its lifetime. Cheap
  /// to create per thread; advise() is safe from exactly the thread(s)
  /// the caller serializes per Reader (one Reader per thread is the
  /// intended shape — the slot is a single hazard cell).
  class Reader {
   public:
    /// Throws std::runtime_error when kMaxReaders are already registered.
    explicit Reader(AdvisorService& service);
    ~Reader();

    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Lock-free lookup: pins the current snapshot via the hazard slot,
    /// copies the entry (or the fallback) out, unpins. Never blocks on
    /// ingestion or the refresher.
    [[nodiscard]] Advice advise(const AdvisorKey& key) const;

   private:
    AdvisorService* service_;
    HazardSlot* slot_;
  };

  // --- introspection (locked paths; not for the hot loop) ----------------

  [[nodiscard]] AdvisorStats stats() const GRIDSUB_EXCLUDES(mu_);

  /// Health snapshot: backlog, entry age, degraded-rate. Locked path.
  [[nodiscard]] AdvisorHealth health() const GRIDSUB_EXCLUDES(mu_);

  /// Writes the current snapshot's deterministic payload
  /// (AdvisorSnapshot::write_json) under the service mutex.
  void dump_json(std::ostream& os) const GRIDSUB_EXCLUDES(mu_);

  // --- crash-restart recovery (docs/robustness.md) -----------------------
  //
  // save_snapshot_file() persists the published snapshot as the same
  // deterministic write_json() payload the tests already byte-compare;
  // warm_start() rebuilds a *fresh* service from such a dump. The
  // round-trip invariant the chaos wall pins: dump → warm_start → dump
  // is byte-identical (to_chars/from_chars round-trip doubles exactly).
  // Warm entries keep serving the recovered payload until their planner
  // has re-accumulated enough post-restart observations to be ready.

  /// Atomically persists dump_json() to `path` (write temp + rename).
  /// Throws RecoveryError when the file cannot be written.
  void save_snapshot_file(const std::string& path) const GRIDSUB_EXCLUDES(mu_);

  /// Loads a recovery dump into this service, which must be virgin (no
  /// ingests, no refreshes, no prior warm start). Publishes the recovered
  /// state as generation 1. Throws RecoveryError on corrupt input, a
  /// fallback_t_inf that disagrees with this service's config, unsorted
  /// or duplicate keys, or a non-virgin service.
  void warm_start(std::istream& is, const std::string& origin)
      GRIDSUB_EXCLUDES(build_mu_, mu_);

  /// warm_start() from a file; `path` names the origin in errors.
  void warm_start_file(const std::string& path)
      GRIDSUB_EXCLUDES(build_mu_, mu_);

 private:
  friend class Reader;

  /// Per-key ingest state: the planner plus bookkeeping the snapshot
  /// builder folds in, all behind the key's own lock.
  struct KeyState {
    explicit KeyState(const online::OnlinePlannerConfig& config)
        : planner(config) {}
    /// A key recovered by warm_start(), published at generation `gen`.
    KeyState(const online::OnlinePlannerConfig& config,
             const AdvisorEntry& recovered, std::uint64_t gen)
        : planner(config),
          observations(recovered.observations),
          changed_generation(gen),
          dirty(false),
          warm(true),
          warm_advice(recovered.advice),
          warm_refits(recovered.refits),
          warm_drift_statistic(recovered.drift_statistic),
          warm_outlier_ratio(recovered.outlier_ratio) {}

    /// Held across observe_*() and any refit it triggers, and while a
    /// snapshot build reads this key. Never held together with mu_.
    core::Mutex mu;
    online::OnlinePlanner planner GRIDSUB_GUARDED_BY(mu);
    std::uint64_t observations GRIDSUB_GUARDED_BY(mu) = 0;
    /// Generation whose refresh last saw this key dirty (stamped into the
    /// entry as entry_generation).
    std::uint64_t changed_generation GRIDSUB_GUARDED_BY(mu) = 0;
    bool dirty GRIDSUB_GUARDED_BY(mu) = true;
    /// Recovered pre-crash state (warm_start). Served by rebuilds until
    /// the restarted planner is ready again; the diagnostics carry over
    /// so counters stay monotone across the crash.
    bool warm GRIDSUB_GUARDED_BY(mu) = false;
    /// Payload fields only; stamped at rebuild.
    Advice warm_advice GRIDSUB_GUARDED_BY(mu);
    std::uint64_t warm_refits GRIDSUB_GUARDED_BY(mu) = 0;
    double warm_drift_statistic GRIDSUB_GUARDED_BY(mu) = 0.0;
    double warm_outlier_ratio GRIDSUB_GUARDED_BY(mu) = 0.0;
  };

  /// One hazard cell per Reader, padded so readers never false-share.
  /// The counters are cumulative across Reader registrations that reuse
  /// the slot; stats()/health() sum them for service-lifetime totals.
  struct alignas(64) HazardSlot {
    std::atomic<const AdvisorSnapshot*> pinned{nullptr};
    std::atomic<bool> claimed{false};
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> degraded{0};
  };

  void ingest_one(const AdvisorKey& key, double latency, bool completed)
      GRIDSUB_EXCLUDES(mu_);
  /// Builds and publishes the next snapshot (no-op when nothing is
  /// pending). Takes mu_ only to collect the keys and to publish; each
  /// key is read under its own lock in between.
  std::uint64_t rebuild_and_swap() GRIDSUB_REQUIRES(build_mu_)
      GRIDSUB_EXCLUDES(mu_);
  void reclaim_retired() GRIDSUB_REQUIRES(mu_);
  void refresher_main() GRIDSUB_EXCLUDES(build_mu_, mu_);
  /// Sums the per-slot lookup/degraded counters (lock-free reads).
  void sum_lookup_counters(std::uint64_t& lookups,
                           std::uint64_t& degraded) const;

  AdvisorConfig config_;

  /// Serializes snapshot builds (refresher, refresh_now, warm_start).
  /// Lock order: build_mu_ before mu_, and build_mu_ before a key lock.
  core::Mutex build_mu_;
  /// Guards the key map, the counters and publication. Held for
  /// bookkeeping only: never across a refit or a key read, and never
  /// together with a key lock.
  mutable core::Mutex mu_;
  /// std::map: deterministic iteration order for the snapshot builder.
  /// Keys are never erased and map nodes never move, so a KeyState*
  /// found under mu_ stays valid after mu_ is released.
  std::map<AdvisorKey, KeyState> keys_ GRIDSUB_GUARDED_BY(mu_);
  std::uint64_t observations_ GRIDSUB_GUARDED_BY(mu_) = 0;
  /// Observations counted after they reached their planner and not yet
  /// folded by a published snapshot.
  std::uint64_t pending_ GRIDSUB_GUARDED_BY(mu_) = 0;
  /// Advanced only with build_mu_ held too.
  std::uint64_t generation_ GRIDSUB_GUARDED_BY(mu_) = 0;
  std::uint64_t swaps_ GRIDSUB_GUARDED_BY(mu_) = 0;
  std::uint64_t staleness_last_ GRIDSUB_GUARDED_BY(mu_) = 0;
  std::uint64_t staleness_max_ GRIDSUB_GUARDED_BY(mu_) = 0;
  bool stop_refresher_ GRIDSUB_GUARDED_BY(mu_) = false;
  core::CondVar wake_;
  std::thread refresher_;  ///< start/stop are caller-serialized

  /// Every snapshot ever published and not yet reclaimed; pruned under
  /// mu_ on each swap once no hazard slot pins the retiree.
  std::vector<std::unique_ptr<const AdvisorSnapshot>> owned_
      GRIDSUB_GUARDED_BY(mu_);

  /// The published snapshot. Swapped only under mu_; read lock-free by
  /// advise().
  std::atomic<const AdvisorSnapshot*> current_{nullptr};
  std::array<HazardSlot, kMaxReaders> slots_;
  std::atomic<std::size_t> readers_{0};
};

}  // namespace gridsub::serve
