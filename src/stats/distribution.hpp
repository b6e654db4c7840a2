#pragma once

// Abstract interface for univariate continuous distributions.
//
// Latency models are built from these (a parametric bulk plus an outlier
// mass, see model/). Every distribution provides pdf/cdf/quantile, the
// first two moments, and exact sampling; numerically-defaulted methods
// (quantile via root bracketing, sampling via inverse transform) can be
// overridden with closed forms.

#include <memory>
#include <string>

#include "stats/rng.hpp"

namespace gridsub::stats {

/// Univariate continuous distribution.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Probability density at x.
  [[nodiscard]] virtual double pdf(double x) const = 0;

  /// Cumulative distribution function P(X <= x).
  [[nodiscard]] virtual double cdf(double x) const = 0;

  /// Inverse CDF for p in [0, 1]; default implementation brackets the root
  /// of cdf(x) - p numerically. p == 0 / 1 map to the support bounds.
  [[nodiscard]] virtual double quantile(double p) const;

  [[nodiscard]] virtual double mean() const = 0;
  [[nodiscard]] virtual double variance() const = 0;

  /// Draws one sample; default is inverse-transform via quantile().
  [[nodiscard]] virtual double sample(Rng& rng) const;

  /// Lower / upper bound of the support (used by the default quantile).
  [[nodiscard]] virtual double support_lower() const { return 0.0; }
  [[nodiscard]] virtual double support_upper() const;

  /// Human-readable name with parameters, e.g. "LogNormal(mu=6.1,sigma=0.9)".
  [[nodiscard]] virtual std::string name() const = 0;
};

using DistributionPtr = std::unique_ptr<Distribution>;

}  // namespace gridsub::stats
