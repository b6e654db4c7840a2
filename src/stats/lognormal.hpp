#pragma once

// Log-normal distribution — the workhorse of grid latency modeling: EGEE
// latencies are heavy-tailed with coefficient of variation between ~0.7 and
// ~2.2 across the paper's trace weeks, which log-normal covers naturally.

#include "stats/distribution.hpp"

namespace gridsub::stats {

/// LogNormal(mu, sigma): ln X ~ N(mu, sigma^2).
class LogNormal final : public Distribution {
 public:
  /// Requires sigma > 0.
  LogNormal(double mu, double sigma);

  /// Mean-preserving construction from the untruncated mean and the log
  /// standard deviation: mu = log(mean) - sigma_log^2/2. Requires
  /// mean > 0 and sigma_log >= 0; sigma_log == 0 is floored to 1e-12,
  /// i.e. effectively deterministic runtimes. Shared by the workload
  /// generators so the derivation and degenerate-sigma policy live in one
  /// audited place.
  static LogNormal from_mean_and_sigma_log(double mean, double sigma_log);

  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double mu() const { return mu_; }
  [[nodiscard]] double sigma() const { return sigma_; }

  /// k-th raw moment conditional on X <= t (closed form); used by the
  /// truncated-moment calibration in stats/fit. Requires t > 0.
  [[nodiscard]] double truncated_raw_moment(int k, double t) const;

 private:
  double mu_;
  double sigma_;
};

}  // namespace gridsub::stats
