#pragma once

// Trace-replay workload source.
//
// Drives the WorkloadManager from a *recorded* Workload (an SWF archive, a
// repo workload CSV, or a synthetic scenario) instead of the stationary
// Poisson BackgroundLoad. This is what makes the paper's §7 cross-week
// claim testable in the DES: the load the strategies face can follow a
// real diurnal cycle, a submission burst, or an outage backlog instead of
// a flat rate.
//
// Knobs:
//   time_scale      — replay speed: arrivals occur at recorded_t /
//                     time_scale, so 2.0 compresses a week into 3.5 days
//                     (denser load), 0.5 stretches it. Runtimes are not
//                     rescaled (use Workload::scale_runtime for that).
//   load_multiplier — expected submitted copies per recorded job: 2.0
//                     duplicates every arrival, 1.5 adds a second copy with
//                     probability one half (deterministic in the seed).
//   loop            — restart from the top when the log is exhausted, with
//                     one mean inter-arrival gap splicing the seams.

#include <cstdint>

#include "sim/wms.hpp"
#include "stats/rng.hpp"
#include "traces/workload.hpp"

namespace gridsub::sim {

struct ReplayLoadConfig {
  double time_scale = 1.0;       ///< > 0; see header comment
  double load_multiplier = 1.0;  ///< >= 0; expected copies per recorded job
  bool loop = false;             ///< repeat the workload indefinitely
};

class ReplayLoad {
 public:
  /// Reads the workload in place, so it must outlive this source; starts
  /// emitting at the simulator's current time. Throws
  /// std::invalid_argument on bad knobs, an empty workload, or one not
  /// sorted by arrival (see Workload::sort_by_arrival()).
  ReplayLoad(Simulator& sim, WorkloadManager& wms,
             const traces::Workload& workload, const ReplayLoadConfig& config,
             stats::Rng rng);

  ReplayLoad(const ReplayLoad&) = delete;
  ReplayLoad& operator=(const ReplayLoad&) = delete;

  /// Stops scheduling further arrivals (pending ones still run).
  void stop();

  /// Jobs submitted to the WMS so far (after multiplication).
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  /// Recorded jobs consumed so far (before multiplication; counts each
  /// loop pass).
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

  /// True once the full log has been replayed (never true with loop).
  [[nodiscard]] bool exhausted() const { return exhausted_; }

 private:
  void schedule_next();
  void emit_current();

  Simulator& sim_;
  WorkloadManager& wms_;
  const traces::Workload* workload_;  ///< the caller's, sorted by arrival
  ReplayLoadConfig config_;
  stats::Rng rng_;
  double start_time_ = 0.0;   ///< sim time of the replay origin
  double loop_offset_ = 0.0;  ///< recorded-time shift of the current pass
  double loop_gap_ = 0.0;     ///< seam between passes (mean inter-arrival)
  std::size_t next_index_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t consumed_ = 0;
  bool exhausted_ = false;
  bool stopped_ = false;
};

}  // namespace gridsub::sim
