#pragma once

// Background workload generator.
//
// EGEE sites serve thousands of concurrent users; probe campaigns and
// strategy clients see queues that are already busy. This component feeds
// Poisson job arrivals with heavy-tailed runtimes into the grid (through
// the WMS, like any other user), parameterized by an arrival rate that the
// feedback experiment sweeps.

#include "sim/wms.hpp"
#include "stats/distribution.hpp"
#include "stats/rng.hpp"

namespace gridsub::sim {

struct BackgroundLoadConfig {
  double arrival_rate = 0.5;  ///< jobs per second (Poisson)
  double runtime_mean = 1800.0;
  double runtime_sigma_log = 1.0;  ///< log-normal runtime shape
};

class BackgroundLoad {
 public:
  /// Starts emitting immediately; runs for the whole simulation.
  BackgroundLoad(Simulator& sim, WorkloadManager& wms,
                 const BackgroundLoadConfig& config, stats::Rng rng);

  BackgroundLoad(const BackgroundLoad&) = delete;
  BackgroundLoad& operator=(const BackgroundLoad&) = delete;

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

 private:
  void schedule_next();

  Simulator& sim_;
  WorkloadManager& wms_;
  BackgroundLoadConfig config_;
  stats::Rng rng_;
  stats::DistributionPtr runtime_dist_;
  std::uint64_t emitted_ = 0;
};

}  // namespace gridsub::sim
