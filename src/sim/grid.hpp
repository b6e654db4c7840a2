#pragma once

// Assembled grid: simulator + heterogeneous CEs + WMS + background load.
//
// GridConfig::egee_like() produces an infrastructure whose probe latencies
// are in the paper's regime: a few-hundred-second bulk (matchmaking +
// queueing behind background jobs) with a heavy tail and a few-percent
// fault ratio.
//
// Thread-safety: a GridSimulation is single-threaded, but *distinct*
// instances share no mutable state — all randomness flows from the
// config seed through root_rng_.split() and every component holds
// per-instance state only (the audited library-wide statics are the
// const dataset registry and the parallel thread pool). The campaign
// engine (src/exp) relies on this to construct and run one grid per
// worker thread concurrently.

#include <memory>
#include <vector>

#include "sim/background_load.hpp"
#include "sim/computing_element.hpp"
#include "sim/metrics.hpp"
#include "sim/replay_load.hpp"
#include "sim/simulator.hpp"
#include "sim/wms.hpp"
#include "stats/rng.hpp"

namespace gridsub::sim {

struct CeSpec {
  int slots = 50;
  double fault_prob = 0.01;
};

struct GridConfig {
  std::vector<CeSpec> elements;  ///< one entry per computing element
  WmsConfig wms;
  BackgroundLoadConfig background;
  std::uint64_t seed = 20090611;  ///< HPDC'09 started June 11, 2009

  /// A 12-site heterogeneous configuration tuned to the paper's latency
  /// regime (mean ≈ 300-700 s, heavy tail, ~3-5% faults).
  static GridConfig egee_like();
};

/// Owns every component of one grid instance.
class GridSimulation {
 public:
  explicit GridSimulation(const GridConfig& config);

  GridSimulation(const GridSimulation&) = delete;
  GridSimulation& operator=(const GridSimulation&) = delete;

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] WorkloadManager& wms() { return *wms_; }
  [[nodiscard]] const GridMetrics& metrics() const { return metrics_; }
  [[nodiscard]] BackgroundLoad& background() { return *background_; }
  [[nodiscard]] const std::vector<std::unique_ptr<ComputingElement>>&
  elements() const {
    return ces_;
  }

  /// Derives an independent RNG stream for client components.
  [[nodiscard]] stats::Rng make_rng() { return root_rng_.split(); }

  /// Attaches a trace-replay workload source feeding this grid's WMS,
  /// starting at the current simulation time. Typically paired with
  /// `config.background.arrival_rate = 0` so the recorded workload is the
  /// only background traffic. The grid owns the returned source, which
  /// reads `workload` in place: the workload must be sorted by arrival
  /// (Workload::sort_by_arrival(); an unsorted one throws
  /// std::invalid_argument) and must outlive the grid. A temporary would
  /// dangle, so the rvalue overload is deleted.
  ReplayLoad& attach_replay(const traces::Workload& workload,
                            const ReplayLoadConfig& config = {});
  ReplayLoad& attach_replay(const traces::Workload&& workload,
                            const ReplayLoadConfig& config = {}) = delete;

  /// Warms the system up: runs `duration` seconds of background-only
  /// traffic so queues reach steady state before measurement.
  void warm_up(SimTime duration);

 private:
  Simulator sim_;
  GridMetrics metrics_;
  stats::Rng root_rng_;
  std::vector<std::unique_ptr<ComputingElement>> ces_;
  std::unique_ptr<WorkloadManager> wms_;
  std::unique_ptr<BackgroundLoad> background_;
  std::vector<std::unique_ptr<ReplayLoad>> replays_;
};

}  // namespace gridsub::sim
