#pragma once

// Uniform-grid cache of a latency model — the evaluation workhorse.
//
// Every strategy formula in the paper is an integral functional of F̃ over
// [0, t∞] with t∞ at most the probe horizon. Discretizing F̃ once on a
// uniform grid makes each E_J / sigma_J evaluation a prefix-sum lookup plus
// interpolation, which is what lets the benches sweep thousands of
// (b, t∞) and (t0, t∞) combinations per dataset in milliseconds.

#include <span>
#include <vector>

#include "model/latency_model.hpp"
#include "traces/trace.hpp"

namespace gridsub::model {

class DiscretizedLatencyModel final : public LatencyModel {
 public:
  /// Samples `source` at t = 0, step, 2*step, ..., horizon. Requires
  /// step > 0 and step <= horizon.
  explicit DiscretizedLatencyModel(const LatencyModel& source,
                                   double step = 1.0);

  /// Convenience: discretize the empirical model of a trace.
  static DiscretizedLatencyModel from_trace(const traces::Trace& trace,
                                            double step = 1.0);

  /// Builds a model directly from F̃ grid samples at t = 0, step, ...
  /// (used by core/uncertainty.hpp to evaluate perturbed ECDF bands).
  /// Requires a non-decreasing grid with values in [0, 1], ftilde[0] == 0
  /// and at least two nodes; the outlier mass is 1 - ftilde.back().
  static DiscretizedLatencyModel from_grid(std::vector<double> ftilde,
                                           double step, std::string name);

  // LatencyModel interface -------------------------------------------------
  /// Linear interpolation of the cached grid (clamps beyond the horizon).
  [[nodiscard]] double ftilde(double t) const override;
  /// Central finite difference of the cached grid.
  [[nodiscard]] double density(double t) const override;
  [[nodiscard]] double outlier_ratio() const override { return rho_; }
  [[nodiscard]] double horizon() const override { return horizon_; }
  /// Inverse-transform sampling of the discretized (piecewise-linear) law.
  [[nodiscard]] double sample(stats::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  // Grid access -------------------------------------------------------------
  [[nodiscard]] double step() const { return step_; }
  [[nodiscard]] std::size_t grid_size() const { return ftilde_.size(); }
  [[nodiscard]] double t_at(std::size_t i) const {
    return static_cast<double>(i) * step_;
  }
  /// F̃ samples at the grid nodes.
  [[nodiscard]] std::span<const double> ftilde_grid() const {
    return ftilde_;
  }
  /// Survival 1 - F̃(t), interpolated.
  [[nodiscard]] double survival_at(double t) const {
    return 1.0 - ftilde(t);
  }

 private:
  DiscretizedLatencyModel() = default;

  double step_ = 1.0;
  double horizon_ = 10000.0;
  double rho_ = 0.0;
  std::vector<double> ftilde_;
  std::string source_name_;
};

}  // namespace gridsub::model
