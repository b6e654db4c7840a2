#pragma once

// Gamma distribution — used for middleware service-time components in the
// discrete-event grid simulator (matchmaking, queue service) and as a third
// candidate family in the estimator ablation.

#include "stats/distribution.hpp"

namespace gridsub::stats {

/// Gamma(shape k, scale theta), both > 0.
class GammaDist final : public Distribution {
 public:
  GammaDist(double shape, double scale);

  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  /// Marsaglia-Tsang squeeze sampler (exact, no inverse transform).
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double shape() const { return shape_; }
  [[nodiscard]] double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
};

}  // namespace gridsub::stats
