#pragma once

// Empirical latency model built from a probe Trace — the paper's estimator.
//
// F̃ is the cumulative histogram normalized by the *total* probe count
// (outliers included), exactly the paper's F̃_R of Figure 1. The density is
// a Gaussian-KDE estimate scaled by (1 - rho); sampling is a bootstrap draw
// over all probes (outliers sample as kNeverStarts).

#include <vector>

#include "model/latency_model.hpp"
#include "stats/kde.hpp"
#include "traces/trace.hpp"

namespace gridsub::model {

class EmpiricalLatencyModel final : public LatencyModel {
 public:
  /// Builds from a trace. `kde_bandwidth` <= 0 selects Silverman's rule.
  /// Requires at least one completed probe.
  explicit EmpiricalLatencyModel(const traces::Trace& trace,
                                 double kde_bandwidth = 0.0);

  [[nodiscard]] double ftilde(double t) const override;
  [[nodiscard]] double density(double t) const override;
  [[nodiscard]] double outlier_ratio() const override { return rho_; }
  [[nodiscard]] double horizon() const override { return horizon_; }
  [[nodiscard]] double sample(stats::Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t completed_count() const {
    return sorted_latencies_.size();
  }
  [[nodiscard]] std::size_t total_count() const { return total_; }

 private:
  std::vector<double> sorted_latencies_;
  std::size_t total_ = 0;
  double rho_ = 0.0;
  double horizon_ = 10000.0;
  stats::KernelDensity kde_;
  std::string source_name_;
};

}  // namespace gridsub::model
