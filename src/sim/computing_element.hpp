#pragma once

// Computing element: a site gateway with a FIFO batch queue and a fixed
// number of worker slots (the EGEE CE + local batch manager). Jobs wait in
// the queue, start when a slot frees, and run for their given runtime.
// A per-CE fault probability drops jobs silently at arrival — the client
// only finds out through its own timeout, as on the real infrastructure.
//
// Two queue lanes are provided for the related-work baselines (Subramani
// et al.'s K-Dual scheme, paper §2): the local lane has strict priority
// over the remote lane, so redundant copies shipped to foreign sites only
// run when no local work waits. Regular traffic uses the local lane.
//
// Bookkeeping is the slot map of sim/slot_map.hpp: a JobHandle is a slot
// handle and the FIFO lanes are intrusive doubly-linked lists threaded
// through the slots, so submit/cancel never hashes and never allocates
// beyond amortized slot-vector growth. Slot state is struct-of-arrays:
// the 20-byte hot record (links, generation, state tag) the scheduler
// scan walks is a separate array from the cold payload (runtime, enqueue
// time, start callback, completion event), so draining a deep queue
// stays cache-dense. Cancelling a queued job unlinks and reclaims its
// slot in O(1), but leaves a counted "ghost" at its queue position: the
// historical deque implementation only dropped canceled entries when they
// reached the queue front with a worker free, so queue_length() — and the
// WMS load ranking built on it — must keep counting them until then for
// whole-grid runs to stay byte-identical. Ghosts are just integers (a
// per-entry predecessor count plus a lane tail count), so a saturated CE
// accumulating canceled jobs costs words, not slots. Handles for jobs
// silently faulted at arrival carry the slot index kNilIndex, so they
// can never resolve; cancel() on them reports false, which is exactly the
// real infrastructure's behaviour (nothing to cancel — the job vanished
// in the submission chain).

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_map.hpp"
#include "sim/small_fn.hpp"
#include "stats/rng.hpp"

namespace gridsub::sim {

class ComputingElement {
 public:
  using JobHandle = SlotHandle;
  /// Called when the job begins execution (start time = sim.now()).
  using StartCallback = SmallFn;

  /// Queue lane: local jobs preempt remote ones *in queueing order* (a
  /// remote job never starts while a local job waits; running jobs are
  /// never preempted).
  enum class Lane { kLocal, kRemote };

  /// `slots` > 0 workers; `fault_prob` in [0,1]; metrics may be nullptr.
  ComputingElement(Simulator& sim, std::string name, int slots,
                   double fault_prob, stats::Rng rng,
                   GridMetrics* metrics = nullptr);

  ComputingElement(const ComputingElement&) = delete;
  ComputingElement& operator=(const ComputingElement&) = delete;

  /// Enqueues a job with the given runtime (>= 0; +inf is allowed, NaN
  /// throws std::invalid_argument before any state changes). on_start
  /// fires when the job starts unless it is canceled (or silently
  /// faulted) first; it may fire synchronously if a slot is free.
  JobHandle submit(double runtime, StartCallback on_start,
                   Lane lane = Lane::kLocal);

  /// Cancels a queued or running job. Returns false if unknown/finished —
  /// including stale handles whose slot has been recycled (generation
  /// check) and handles of silently-faulted submissions.
  bool cancel(JobHandle handle);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int slots() const { return slots_; }
  [[nodiscard]] int running() const { return running_; }
  [[nodiscard]] std::size_t queue_length() const {
    return local_.count + remote_.count;
  }
  [[nodiscard]] std::size_t queue_length(Lane lane) const {
    return lane == Lane::kLocal ? local_.count : remote_.count;
  }
  /// Load metric used by the WMS ranking: (queued + running) / slots.
  [[nodiscard]] double load() const;

 private:
  enum class JobState : std::uint8_t {
    kQueued,
    kStarting,  ///< on_start in flight (handle momentarily unknown)
    kRunning
  };

  /// Hot half of a job slot — the 20 bytes the scheduler scan, lane
  /// drains, and cancel routing actually read, so a busy CE walks ~3
  /// slots per cache line instead of dragging callback payloads through.
  /// The slot map chains free slots through `next`.
  struct JobHot {
    std::uint32_t generation = 1;
    std::uint32_t prev = kNilIndex;  ///< lane FIFO back-link while queued
    std::uint32_t next = kNilIndex;  ///< lane FIFO link / free-list link
    /// Canceled-but-undrained entries immediately ahead of this one in
    /// the lane (see the ghost-accounting note above).
    std::uint32_t ghosts_before = 0;
    JobState state = JobState::kQueued;
    Lane lane = Lane::kLocal;  ///< valid while queued
  };

  /// Cold half, parallel to `hot_`: payloads touched only at submit,
  /// start, and completion of *this* job, never during scans over others.
  struct JobCold {
    double runtime = 0.0;
    SimTime enqueue_time = 0.0;
    StartCallback on_start;
    EventId completion_event = 0;  ///< valid while running
  };
  static_assert(sizeof(JobCold) == 56);

  /// Intrusive FIFO lane over the slot vector. `count` includes ghost
  /// entries not yet drained, matching the historical deque semantics
  /// that queue_length()/load() expose to the WMS.
  struct LaneList {
    std::uint32_t head = kNilIndex;
    std::uint32_t tail = kNilIndex;
    std::size_t ghosts_tail = 0;  ///< ghosts behind the last live entry
    std::size_t count = 0;
  };

  void release_slot(std::uint32_t index);
  void lane_unlink_to_ghost(LaneList& list, std::uint32_t index);
  void try_start_next();
  void finish_job(JobHandle handle);

  Simulator& sim_;
  std::string name_;
  int slots_;
  double fault_prob_;
  stats::Rng rng_;
  GridMetrics* metrics_;

  SlotMap<JobHot, &JobHot::next> hot_;  ///< struct-of-arrays job state...
  std::vector<JobCold> cold_;           ///< ...same index = same job
  LaneList local_;   // local lane, FIFO
  LaneList remote_;  // remote lane, FIFO, lower priority
  /// Distinct never-resolving handles for silently dropped submissions.
  std::uint32_t fault_serial_ = 1;
  int running_ = 0;
};

}  // namespace gridsub::sim
