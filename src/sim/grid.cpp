#include "sim/grid.hpp"

#include <stdexcept>
#include <string>

namespace gridsub::sim {

GridConfig GridConfig::egee_like() {
  GridConfig config;
  // Heterogeneous sites: a couple of large centres, several mid-sized,
  // a few small, with varying reliability — mirroring the federated,
  // independently-configured centres the paper describes.
  config.elements = {
      {200, 0.005}, {160, 0.01}, {120, 0.01}, {100, 0.02}, {80, 0.02},
      {64, 0.03},   {48, 0.02},  {40, 0.04},  {32, 0.03},  {24, 0.05},
      {16, 0.04},   {12, 0.06},
  };
  config.wms.network.hops = 5;
  config.wms.network.hop_mean = 25.0;
  config.wms.network.hop_shape = 1.2;  // high per-hop variability
  config.wms.info_refresh_period = 300.0;
  config.wms.fault_prob = 0.015;
  config.wms.dispatch = WmsConfig::Dispatch::kLeastLoaded;
  config.background.arrival_rate = 0.45;
  config.background.runtime_mean = 2200.0;
  config.background.runtime_sigma_log = 1.1;
  return config;
}

GridSimulation::GridSimulation(const GridConfig& config)
    : root_rng_(config.seed) {
  if (config.elements.empty()) {
    throw std::invalid_argument("GridSimulation: no computing elements");
  }
  ces_.reserve(config.elements.size());
  std::vector<ComputingElement*> raw;
  raw.reserve(config.elements.size());
  for (std::size_t i = 0; i < config.elements.size(); ++i) {
    const auto& spec = config.elements[i];
    ces_.push_back(std::make_unique<ComputingElement>(
        sim_, "ce-" + std::to_string(i), spec.slots, spec.fault_prob,
        root_rng_.split(), &metrics_));
    raw.push_back(ces_.back().get());
  }
  wms_ = std::make_unique<WorkloadManager>(sim_, std::move(raw), config.wms,
                                           root_rng_.split(), &metrics_);
  background_ = std::make_unique<BackgroundLoad>(
      sim_, *wms_, config.background, root_rng_.split());
}

ReplayLoad& GridSimulation::attach_replay(const traces::Workload& workload,
                                          const ReplayLoadConfig& config) {
  replays_.push_back(std::make_unique<ReplayLoad>(sim_, *wms_, workload,
                                                  config, root_rng_.split()));
  return *replays_.back();
}

void GridSimulation::warm_up(SimTime duration) {
  if (duration < 0.0) {
    throw std::invalid_argument("GridSimulation::warm_up: negative duration");
  }
  sim_.run_until(sim_.now() + duration);
}

}  // namespace gridsub::sim
