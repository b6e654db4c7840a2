#pragma once

// Fault injection over the advisor serving stack.
//
// FaultInjector turns a FaultSchedule's pure decisions into side effects
// at the stack's chaos seams, and keeps a log of every injected event:
//
//   * FaultyTransport wraps any serve::Transport and applies the
//     request-path faults (drop / delay / duplicate) and reply-path
//     faults (drop / transient) the schedule dictates, while keeping the
//     inner transport's in-flight accounting exact via abandon() /
//     expect_duplicate() — shutdown still drains cleanly under faults;
//   * ingest_hook() plugs into ReplayFeedConfig::fault_hook and stalls
//     the owning ingest worker (yield loop — no clocks) on scheduled
//     job indices;
//   * refresher_hook() plugs into AdvisorConfig::refresh_fault and
//     pauses scheduled refresh generations the same way.
//
// The injected-event log is the determinism witness: every event is
// (fault class, stable id), and events() returns them sorted, so two
// runs with the same seed produce byte-identical write_events_json()
// output at any thread count — exactly what test_fault_determinism pins.
//
// Delivery caveat for delayed requests: a deferral is measured in
// subsequent next() pulls, so when traffic stops before the deferral
// elapses the request is handed out during the close-drain instead.
// Either way it is served exactly once — never lost.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string_view>
#include <vector>

#include "core/thread_annotations.hpp"
#include "fault/fault_schedule.hpp"
#include "serve/request_loop.hpp"

namespace gridsub::fault {

/// Every fault the harness can inject, across all seams.
enum class FaultClass : std::uint8_t {
  kDropRequest,
  kDelayRequest,
  kDuplicateRequest,
  kDropReply,
  kTransientReply,
  kIngestStall,
  kRefresherPause,
};

[[nodiscard]] constexpr std::string_view to_string(FaultClass cls) {
  switch (cls) {
    case FaultClass::kDropRequest:
      return "drop-request";
    case FaultClass::kDelayRequest:
      return "delay-request";
    case FaultClass::kDuplicateRequest:
      return "duplicate-request";
    case FaultClass::kDropReply:
      return "drop-reply";
    case FaultClass::kTransientReply:
      return "transient-reply";
    case FaultClass::kIngestStall:
      return "ingest-stall";
    case FaultClass::kRefresherPause:
      return "refresher-pause";
  }
  return "unknown";
}

/// One injected fault: the class and the stable operation id the
/// schedule keyed the decision on (request id, job index, or
/// generation — see FaultSchedule).
struct FaultEvent {
  FaultClass cls = FaultClass::kDropRequest;
  std::uint64_t id = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
  friend auto operator<=>(const FaultEvent&, const FaultEvent&) = default;
};

/// Applies a FaultSchedule at the stack's seams and logs what it did.
/// Thread-safe: hooks and the wrapped transport may fire from any
/// thread concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultScheduleConfig& config);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

  /// For ReplayFeedConfig::fault_hook: deterministic stall on scheduled
  /// global job indices (the shard argument is ignored on purpose — the
  /// stalled set must be thread-count invariant).
  [[nodiscard]] std::function<void(std::size_t, std::uint64_t)> ingest_hook();

  /// For AdvisorConfig::refresh_fault: deterministic pause on scheduled
  /// refresh generations.
  [[nodiscard]] std::function<void(std::uint64_t)> refresher_hook();

  /// Records one injected event (hooks and FaultyTransport call this).
  void record(FaultClass cls, std::uint64_t id) GRIDSUB_EXCLUDES(mu_);

  /// All injected events so far, sorted by (class, id) — the
  /// deterministic witness two same-seed runs must agree on.
  [[nodiscard]] std::vector<FaultEvent> events() const GRIDSUB_EXCLUDES(mu_);

  /// Injected events of one class so far.
  [[nodiscard]] std::uint64_t count(FaultClass cls) const
      GRIDSUB_EXCLUDES(mu_);

  /// Writes events() as JSON: {"events": [{"class": ..., "id": ...}]}.
  /// Byte-identical for the same seed at any thread count.
  void write_events_json(std::ostream& os) const GRIDSUB_EXCLUDES(mu_);

 private:
  FaultSchedule schedule_;
  mutable core::Mutex mu_;
  std::vector<FaultEvent> events_ GRIDSUB_GUARDED_BY(mu_);
};

/// serve::Transport decorator applying the schedule's request/reply
/// faults to an inner transport. Safe for several serving threads, like
/// the transport it wraps. The inner transport's client side is still
/// driven directly (post / take_reply / close on the inner object).
class FaultyTransport final : public serve::Transport {
 public:
  /// next() pulls a delayed request is deferred by; its queue_age grows
  /// by as much.
  static constexpr std::uint32_t kDelayOps = 4;
  /// Failed deliveries of a transient reply before one succeeds.
  static constexpr std::uint32_t kTransientAttempts = 2;

  FaultyTransport(serve::Transport& inner, FaultInjector& injector);

  bool next(serve::AdvisorRequest& out) override;
  [[nodiscard]] bool reply(const serve::AdvisorResponse& response) override;
  void abandon() override;
  void expect_duplicate() override;

 private:
  /// Pops a deferred request that is due (or, when `flush`, any deferred
  /// request); false when none qualifies.
  bool pop_deferred(serve::AdvisorRequest& out, bool flush)
      GRIDSUB_EXCLUDES(mu_);

  serve::Transport& inner_;
  FaultInjector& injector_;
  mutable core::Mutex mu_;
  /// Pulls observed so far; the logical clock deferrals count against.
  std::uint64_t seq_ GRIDSUB_GUARDED_BY(mu_) = 0;
  /// Deferred (delayed / duplicated) requests keyed by due pull-count.
  /// Ordered map: the earliest-due request is served first.
  std::multimap<std::uint64_t, serve::AdvisorRequest> deferred_
      GRIDSUB_GUARDED_BY(mu_);
  /// Transient-reply failures already injected per request id.
  std::map<std::uint64_t, std::uint32_t> reply_failures_
      GRIDSUB_GUARDED_BY(mu_);
};

}  // namespace gridsub::fault
