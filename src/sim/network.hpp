#pragma once

// Network / middleware hop delays.
//
// The paper stresses that ~10 machines participate in a submission
// (credential delegation, match-making, file catalog, monitoring...). We
// model the aggregate per-hop overhead as gamma-distributed delays with a
// configurable hop count — enough to give the latency floor and bulk the
// probe campaigns observe.
//
// A path's delay is drawn once, not hop by hop: the hops are iid
// Gamma(hop_shape, hop_mean / hop_shape), and a sum of independent gammas
// with a common scale is gamma with the shapes added, so the total is
// exactly Gamma(hops · hop_shape, hop_mean / hop_shape) — mean
// hops · hop_mean, variance hops · hop_mean² / hop_shape. One draw costs
// what one hop did; the WMS samples a path for every job it accepts.

#include "stats/gamma.hpp"
#include "stats/rng.hpp"

namespace gridsub::sim {

struct NetworkConfig {
  int hops = 4;              ///< middleware hops per submission
  double hop_mean = 8.0;     ///< mean delay per hop (s)
  double hop_shape = 2.0;    ///< gamma shape per hop (cv = 1/sqrt(shape))
};

/// Samples submission-path delays.
class NetworkModel {
 public:
  explicit NetworkModel(const NetworkConfig& config);

  /// Total delay across all hops for one traversal (one gamma draw).
  [[nodiscard]] double sample_path_delay(stats::Rng& rng) const;

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

 private:
  NetworkConfig config_;
  stats::GammaDist path_;  ///< law of the sum over all hops
};

}  // namespace gridsub::sim
