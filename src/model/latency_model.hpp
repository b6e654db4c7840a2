#pragma once

// Latency models: the defective CDF F̃_R at the heart of the paper.
//
// A job's latency R is observed only up to the probe timeout; jobs beyond
// it — and outright faults — form an outlier mass rho. The paper works with
//   F̃_R(t) = (1 - rho) * F_R(t) = P(R <= t)   over *all* submitted jobs,
// which saturates at 1 - rho instead of 1 (it is not a proper CDF, and the
// strategy formulas are careful never to treat it as one). A LatencyModel
// exposes F̃, its density, the outlier mass, the observation horizon, and
// exact sampling (outliers sample as +infinity: such a job never starts).

#include <limits>
#include <memory>
#include <string>

#include "stats/rng.hpp"

namespace gridsub::model {

/// Sample value representing an outlier (a job that never starts).
inline constexpr double kNeverStarts =
    std::numeric_limits<double>::infinity();

/// True if a sampled latency represents an outlier/fault.
[[nodiscard]] inline bool is_outlier_sample(double latency) {
  return !(latency < kNeverStarts);
}

/// Abstract latency model.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Defective CDF F̃(t) = P(R <= t) over all jobs; non-decreasing,
  /// F̃(0) = 0, sup F̃ = 1 - outlier_ratio().
  [[nodiscard]] virtual double ftilde(double t) const = 0;

  /// Density f̃(t) = dF̃/dt (may be an estimate for empirical models).
  [[nodiscard]] virtual double density(double t) const = 0;

  /// Outlier mass rho in [0, 1).
  [[nodiscard]] virtual double outlier_ratio() const = 0;

  /// Observation horizon (the probe campaign timeout, 10^4 s in the paper).
  /// F̃ is constant beyond it.
  [[nodiscard]] virtual double horizon() const = 0;

  /// Draws one latency; returns kNeverStarts with probability
  /// outlier_ratio().
  [[nodiscard]] virtual double sample(stats::Rng& rng) const = 0;

  /// Survival over all jobs: P(R > t) = 1 - F̃(t).
  [[nodiscard]] double survival(double t) const { return 1.0 - ftilde(t); }

  [[nodiscard]] virtual std::string name() const = 0;
};

using LatencyModelPtr = std::unique_ptr<LatencyModel>;

}  // namespace gridsub::model
