#pragma once

// Probe client: the paper's measurement methodology (§3.2) inside the DES.
//
// Keeps a constant number of near-zero-duration probes in flight: each
// time one starts executing (or hits the campaign timeout and is canceled)
// a replacement is submitted, so monitoring does not modulate the load.
// The collected Trace feeds the same modeling pipeline as the synthetic
// datasets — closing the loop probe → F̃ → strategy optimization entirely
// inside the repository.

#include "sim/grid.hpp"
#include "traces/trace.hpp"

namespace gridsub::sim {

struct ProbeCampaignConfig {
  std::size_t n_probes = 1000;       ///< total probes to record
  std::size_t concurrent = 10;       ///< constant in-flight count
  double timeout = 10000.0;          ///< outlier threshold (paper value)
};

class ProbeClient {
 public:
  /// Binds to a grid; call start() then run the simulator.
  ProbeClient(GridSimulation& grid, const ProbeCampaignConfig& config,
              std::string trace_name = "probe-campaign");

  ProbeClient(const ProbeClient&) = delete;
  ProbeClient& operator=(const ProbeClient&) = delete;

  /// Submits the initial batch of probes.
  void start();

  /// True once n_probes results have been recorded.
  [[nodiscard]] bool done() const {
    return trace_.size() >= config_.n_probes;
  }

  [[nodiscard]] const traces::Trace& trace() const { return trace_; }

 private:
  void submit_probe();

  GridSimulation& grid_;
  ProbeCampaignConfig config_;
  traces::Trace trace_;
  std::size_t submitted_ = 0;
};

}  // namespace gridsub::sim
