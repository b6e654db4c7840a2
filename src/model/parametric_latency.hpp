#pragma once

// Parametric latency model: a bulk Distribution plus a fault mass.
//
// A submitted job fails outright with probability fault_ratio; otherwise
// its latency is drawn from the bulk law, and draws beyond the horizon are
// indistinguishable from faults (the probe campaign cancels them), so
//   F̃(t) = (1 - fault_ratio) * F_bulk(min(t, horizon))
// and the total outlier mass is fault_ratio + (1-fault_ratio) * tail mass.

#include "model/latency_model.hpp"
#include "stats/distribution.hpp"

namespace gridsub::model {

class ParametricLatencyModel final : public LatencyModel {
 public:
  /// Takes ownership of `bulk`. Requires fault_ratio in [0, 1) and
  /// horizon > 0.
  ParametricLatencyModel(stats::DistributionPtr bulk, double fault_ratio,
                         double horizon = 10000.0);

  ParametricLatencyModel(ParametricLatencyModel&&) noexcept = default;
  ParametricLatencyModel& operator=(ParametricLatencyModel&&) noexcept =
      default;

  [[nodiscard]] double ftilde(double t) const override;
  [[nodiscard]] double density(double t) const override;
  [[nodiscard]] double outlier_ratio() const override;
  [[nodiscard]] double horizon() const override { return horizon_; }
  [[nodiscard]] double sample(stats::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const stats::Distribution& bulk() const { return *bulk_; }
  [[nodiscard]] double fault_ratio() const { return fault_ratio_; }

 private:
  stats::DistributionPtr bulk_;
  double fault_ratio_;
  double horizon_;
  double bulk_cdf_at_horizon_;
};

}  // namespace gridsub::model
