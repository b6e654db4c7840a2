#pragma once

// Weibull distribution — common alternative latency-bulk model in the grid
// workload literature (e.g. Christodoulopoulos et al. 2008); used by the
// estimator-ablation bench to test sensitivity to the fitted family.

#include "stats/distribution.hpp"

namespace gridsub::stats {

/// Weibull(shape k, scale lambda), both > 0.
class Weibull final : public Distribution {
 public:
  Weibull(double shape, double scale);

  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double shape() const { return shape_; }
  [[nodiscard]] double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
};

}  // namespace gridsub::stats
