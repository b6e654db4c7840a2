#pragma once

// Strategy clients: the paper's three submission strategies executed with
// real cancel semantics against the simulated grid.
//
// Unlike the Monte Carlo engine (which samples latencies from a model),
// these clients interact with the live infrastructure: their cancellations
// free queue slots, their resubmissions add load, and — in the feedback
// experiment — many concurrent strategy clients perturb each other, the
// paper's stated future work.
//
// Built to be instantiated 10^5-10^6 times in one simulation
// (bench_scale_million): per-round protocol state is a fixed block of hot
// members reused across rounds — no shared_ptr round objects, no per-round
// allocation — with a monotone round counter as the staleness guard:
// callbacks capture the round they belong to and no-op when the client has
// moved on, which is observably identical to the historical
// fresh-state-per-round scheme (the old `settled` flag *is* a round
// mismatch). Means are folded incrementally (same Kahan order as summing
// the stored outcomes), so with `record_outcomes = false` a client costs
// O(1) memory regardless of task count.

#include <cstdint>
#include <vector>

#include "core/strategy.hpp"
#include "numerics/kahan.hpp"
#include "sim/grid.hpp"

namespace gridsub::sim {

/// Parameters of the client-side protocol for one task stream.
struct StrategySpec {
  core::StrategyKind kind = core::StrategyKind::kSingleResubmission;
  double t_inf = 900.0;  ///< timeout (all strategies)
  double t0 = 600.0;     ///< delayed only
  int b = 1;             ///< multiple only (single runs with b = 1)
};

/// Outcome of one task (one logical job pushed through the strategy).
struct TaskOutcome {
  double total_latency = 0.0;  ///< J: submission of first copy -> first start
  int submissions = 0;         ///< copies submitted for this task
};

/// Runs `n_tasks` sequentially: task i+1 begins when task i's job has
/// started. Designed so several clients can share one grid.
class StrategyClient {
 public:
  /// `record_outcomes = false` keeps only the running means — the
  /// configuration for million-client runs, where per-task vectors would
  /// dominate memory. Aggregate accessors are unaffected.
  StrategyClient(GridSimulation& grid, StrategySpec spec,
                 std::size_t n_tasks, double task_runtime = 1.0,
                 bool record_outcomes = true);

  StrategyClient(const StrategyClient&) = delete;
  StrategyClient& operator=(const StrategyClient&) = delete;

  /// Begins the first task.
  void start();

  [[nodiscard]] bool done() const { return completed_ >= n_tasks_; }
  [[nodiscard]] std::size_t tasks_done() const { return completed_; }
  /// Per-task records; empty when constructed with record_outcomes=false.
  [[nodiscard]] const std::vector<TaskOutcome>& outcomes() const {
    return outcomes_;
  }

  /// Mean total latency over finished tasks.
  [[nodiscard]] double mean_latency() const;
  /// Mean submissions per task.
  [[nodiscard]] double mean_submissions() const;

 private:
  /// One in-flight delayed-strategy copy; live_ stays sorted by index
  /// because copies are appended in submission order (matching the
  /// historical std::map<int, Copy> iteration order).
  struct DelayedCopy {
    int index = 0;
    WorkloadManager::TicketId ticket = 0;
    EventId timeout_event = 0;
  };

  void start_task();
  /// One round of spec_.b copies; single resubmission is the b = 1 round.
  void begin_multiple_round();
  void delayed_submit_copy();
  /// Records the task (incremental Kahan fold, completion order) and
  /// starts the next one.
  void finish_task(double latency);

  GridSimulation& grid_;
  StrategySpec spec_;
  std::size_t n_tasks_;
  double task_runtime_;
  bool record_outcomes_;

  // --- hot per-round protocol state, reused across rounds -------------
  /// Staleness guard: bumped whenever outstanding callbacks must die
  /// (round settled, timed out, or a new task began). Callbacks capture
  /// the value at arm time and no-op on mismatch.
  std::uint64_t round_ = 0;
  SimTime task_start_ = 0.0;
  int submissions_ = 0;  ///< copies submitted for the current task
  std::vector<WorkloadManager::TicketId> tickets_;   // single & multiple
  EventId timeout_event_ = 0;                        // single & multiple
  std::vector<DelayedCopy> live_;                    // delayed (reused)
  EventId next_submit_event_ = 0;                    // delayed chain
  int next_index_ = 0;                               // delayed copy counter

  // --- aggregates -----------------------------------------------------
  std::size_t completed_ = 0;
  numerics::KahanAccumulator latency_acc_;
  numerics::KahanAccumulator submissions_acc_;
  std::vector<TaskOutcome> outcomes_;
};

}  // namespace gridsub::sim
