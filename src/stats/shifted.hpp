#pragma once

// Location-shift wrapper: Y = shift + X.
//
// Grid latencies have a hard floor (credential delegation, match-making,
// dispatch — a job can never start in zero seconds). Synthetic weeks model
// latency as shift + LogNormal, which also keeps the delayed-resubmission
// dynamics realistic: no job can start before the floor, so a copy
// submitted at t0 < floor never wins instantly.

#include "stats/distribution.hpp"

namespace gridsub::stats {

/// Shifted(inner, shift): Y = shift + X, X ~ inner.
class Shifted final : public Distribution {
 public:
  /// Takes ownership of `inner`. Requires inner != nullptr.
  Shifted(DistributionPtr inner, double shift);

  Shifted(Shifted&&) noexcept = default;
  Shifted& operator=(Shifted&&) noexcept = default;

  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double support_lower() const override;
  [[nodiscard]] double support_upper() const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double shift() const { return shift_; }
  [[nodiscard]] const Distribution& inner() const { return *inner_; }

 private:
  DistributionPtr inner_;
  double shift_;
};

}  // namespace gridsub::stats
