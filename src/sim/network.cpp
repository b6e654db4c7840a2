#include "sim/network.hpp"

#include <stdexcept>

namespace gridsub::sim {

namespace {

const NetworkConfig& checked(const NetworkConfig& config) {
  if (config.hops < 1) throw std::invalid_argument("NetworkModel: hops < 1");
  return config;
}

}  // namespace

NetworkModel::NetworkModel(const NetworkConfig& config)
    : config_(checked(config)),
      path_(config.hops * config.hop_shape,
            config.hop_mean / config.hop_shape) {}

double NetworkModel::sample_path_delay(stats::Rng& rng) const {
  return path_.sample(rng);
}

}  // namespace gridsub::sim
