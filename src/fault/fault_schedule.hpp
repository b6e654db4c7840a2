#pragma once

// Seeded, deterministic fault decisions for the chaos harness.
//
// A FaultSchedule answers "does operation X suffer fault Y?" as a pure
// function of (seed, fault class, operation identity). Identity is a
// stable 64-bit id that does not depend on scheduling: the request id,
// the global workload job index, or the refresh generation. Arrival
// order, thread ids, and wall time never enter a decision, so the *set*
// of injected faults — and therefore the sorted injected-event log — is
// byte-identical at any thread count. That is the property the
// determinism wall (test_fault_determinism) pins, and the reason this
// directory sits under scripts/lint_determinism.py with zero waivers: no
// wall clocks, no std::rand, no unordered-container iteration.
//
// Probabilities for one identity domain are rolled from a *single* hash
// draw against cumulative thresholds, so fault classes that share a
// domain (drop/delay/duplicate on requests) are mutually exclusive by
// construction — an operation suffers at most one of them.

#include <cstdint>

namespace gridsub::fault {

/// Per-class fault rates, all in [0, 1]. The defaults are all zero: a
/// default schedule injects nothing, so wiring the hooks is harmless.
struct FaultScheduleConfig {
  std::uint64_t seed = 0;

  // Request-path faults (mutually exclusive per request id).
  double drop_request = 0.0;       ///< request vanishes before the loop
  double delay_request = 0.0;      ///< request is deferred delay_ops pulls
  double duplicate_request = 0.0;  ///< request is delivered twice
  std::uint32_t delay_ops = 4;     ///< deferral distance, in next() pulls

  // Reply-path faults (mutually exclusive per request id).
  double drop_reply = 0.0;       ///< reply is discarded after compute
  double transient_reply = 0.0;  ///< reply fails transiently, retry succeeds
  std::uint32_t transient_attempts = 2;  ///< failures before delivery

  // Ingest stalls, keyed on the global workload job index.
  double ingest_stall = 0.0;
  std::uint32_t stall_yields = 64;  ///< yields per injected stall

  // Refresher pauses, keyed on the refresh generation.
  double refresher_pause = 0.0;
  std::uint32_t pause_yields = 256;  ///< yields per injected pause

  /// True when every rate is in [0, 1] and every same-domain group sums
  /// to at most 1 (the cumulative-threshold roll needs that).
  [[nodiscard]] bool validate() const;
};

/// What a request suffers on its way *into* the loop.
enum class RequestFault : std::uint8_t { kNone, kDrop, kDelay, kDuplicate };

/// What a reply suffers on its way *out*.
enum class ReplyFault : std::uint8_t { kNone, kDrop, kTransient };

/// Pure decision table over (seed, class, id). Copyable, no state: every
/// method may be called from any thread, any number of times, and
/// returns the same answer for the same arguments.
class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(const FaultScheduleConfig& config);

  [[nodiscard]] const FaultScheduleConfig& config() const { return config_; }

  /// Fault (if any) for the request with this id.
  [[nodiscard]] RequestFault request_fault(std::uint64_t request_id) const;

  /// Fault (if any) for the reply to the request with this id.
  [[nodiscard]] ReplyFault reply_fault(std::uint64_t request_id) const;

  /// True when the ingest worker must stall before feeding this job
  /// (identified by its global index in the workload, not by shard).
  [[nodiscard]] bool ingest_stall(std::uint64_t job_index) const;

  /// True when the refresher must pause before publishing this
  /// generation.
  [[nodiscard]] bool refresher_pause(std::uint64_t generation) const;

 private:
  /// Uniform draw in [0, 1) for (class tag, id) under this seed.
  [[nodiscard]] double unit(std::uint64_t tag, std::uint64_t id) const;
  [[nodiscard]] std::uint64_t mix(std::uint64_t tag, std::uint64_t id) const;

  FaultScheduleConfig config_;
};

}  // namespace gridsub::fault
