#pragma once

// Distribution fitting and goodness of fit.
//
// Two jobs in this repository:
//  1. Calibrating the synthetic EGEE-like trace weeks: given the paper's
//     Table 1 targets (conditional mean/sd of latency below the 10^4 s
//     outlier timeout), solve for shifted-log-normal parameters whose
//     *truncated* moments match (calibrate_truncated_lognormal).
//  2. Fitting parametric latency models to measured traces (MLE), as a
//     smoother alternative to the raw ECDF — compared in the estimator
//     ablation bench.

#include <span>

#include "stats/distribution.hpp"
#include "stats/lognormal.hpp"
#include "stats/weibull.hpp"

namespace gridsub::stats {

/// MLE for LogNormal: mu = mean(ln x), sigma^2 = ML variance of ln x.
/// Requires all samples > 0 and size >= 2.
LogNormal fit_lognormal_mle(std::span<const double> xs);

/// MLE for Weibull via Newton iteration on the shape profile equation.
/// Requires all samples > 0 and size >= 2.
Weibull fit_weibull_mle(std::span<const double> xs);

/// Log-likelihood of a sample under a distribution (sum of log pdf;
/// returns -inf if any point has zero density).
double log_likelihood(std::span<const double> xs, const Distribution& dist);

/// Akaike information criterion: 2k - 2 lnL.
double aic(double log_lik, int n_params);

/// Two-sided Kolmogorov-Smirnov statistic sup |F_n - F|.
double ks_statistic(std::span<const double> xs, const Distribution& dist);

/// Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b| between the
/// empirical CDFs of two samples (used for workload drift detection).
double ks_two_sample(std::span<const double> xs, std::span<const double> ys);

/// Result of the truncated-moment calibration.
struct TruncatedLogNormalFit {
  double mu = 0.0;
  double sigma = 0.0;
  /// Mass the fitted law leaves above the truncation point; jobs there are
  /// indistinguishable from faults in a probe campaign.
  double tail_mass = 0.0;
  bool converged = false;
};

/// Finds LogNormal(mu, sigma) such that E[X | X <= t_cut] == target_mean and
/// SD[X | X <= t_cut] == target_sd, using closed-form truncated moments and
/// nested Brent root solves (inner: mu given sigma matches the mean;
/// outer: sigma matches the sd). Requires 0 < target_sd, and
/// 0 < target_mean < t_cut.
TruncatedLogNormalFit calibrate_truncated_lognormal(double target_mean,
                                                    double target_sd,
                                                    double t_cut);

}  // namespace gridsub::stats
