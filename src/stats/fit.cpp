#include "stats/fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "numerics/kahan.hpp"
#include "numerics/rootfind.hpp"
#include "stats/summary.hpp"

namespace gridsub::stats {

LogNormal fit_lognormal_mle(std::span<const double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("fit_lognormal: need >= 2");
  numerics::KahanAccumulator sum_log;
  for (double x : xs) {
    if (!(x > 0.0)) {
      throw std::invalid_argument("fit_lognormal: sample must be positive");
    }
    sum_log.add(std::log(x));
  }
  const double n = static_cast<double>(xs.size());
  const double mu = sum_log.value() / n;
  numerics::KahanAccumulator ss;
  for (double x : xs) {
    const double d = std::log(x) - mu;
    ss.add(d * d);
  }
  const double sigma = std::sqrt(std::max(ss.value() / n, 1e-12));
  return LogNormal(mu, sigma);
}

Weibull fit_weibull_mle(std::span<const double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("fit_weibull: need >= 2");
  std::vector<double> logs;
  logs.reserve(xs.size());
  for (double x : xs) {
    if (!(x > 0.0)) {
      throw std::invalid_argument("fit_weibull: sample must be positive");
    }
    logs.push_back(std::log(x));
  }
  const double mean_log = mean(logs);
  // Profile equation g(k) = S_xlog(k)/S_x(k) - 1/k - mean_log = 0, where
  // S_x(k) = sum x^k and S_xlog(k) = sum x^k ln x. g is increasing in k.
  const auto g = [&](double k) {
    numerics::KahanAccumulator sx, sxl;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double xk = std::pow(xs[i], k);
      sx.add(xk);
      sxl.add(xk * logs[i]);
    }
    return sxl.value() / sx.value() - 1.0 / k - mean_log;
  };
  auto root = numerics::bracket_and_solve(g, 0.05, 5.0, 60, 1e-10);
  if (!root.converged) {
    throw std::runtime_error("fit_weibull: shape solve failed");
  }
  const double k = root.x;
  numerics::KahanAccumulator sx;
  for (double x : xs) sx.add(std::pow(x, k));
  const double lambda =
      std::pow(sx.value() / static_cast<double>(xs.size()), 1.0 / k);
  return Weibull(k, lambda);
}

double log_likelihood(std::span<const double> xs, const Distribution& dist) {
  numerics::KahanAccumulator acc;
  for (double x : xs) {
    const double p = dist.pdf(x);
    if (!(p > 0.0)) return -std::numeric_limits<double>::infinity();
    acc.add(std::log(p));
  }
  return acc.value();
}

double aic(double log_lik, int n_params) {
  return 2.0 * static_cast<double>(n_params) - 2.0 * log_lik;
}

double ks_statistic(std::span<const double> xs, const Distribution& dist) {
  if (xs.empty()) throw std::invalid_argument("ks_statistic: empty sample");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = dist.cdf(sorted[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(std::abs(f - lo), std::abs(hi - f)));
  }
  return d;
}

double ks_two_sample(std::span<const double> xs, std::span<const double> ys) {
  if (xs.empty() || ys.empty()) {
    throw std::invalid_argument("ks_two_sample: empty sample");
  }
  std::vector<double> a(xs.begin(), xs.end());
  std::vector<double> b(ys.begin(), ys.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  // Sweep the merged order, comparing the two step ECDFs at every jump.
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

namespace {

// Conditional moments of LogNormal(mu, sigma) given X <= t.
double trunc_mean(double mu, double sigma, double t) {
  return LogNormal(mu, sigma).truncated_raw_moment(1, t);
}

double trunc_sd(double mu, double sigma, double t) {
  const LogNormal ln(mu, sigma);
  const double m1 = ln.truncated_raw_moment(1, t);
  const double m2 = ln.truncated_raw_moment(2, t);
  return std::sqrt(std::max(m2 - m1 * m1, 0.0));
}

// Solve mu such that the truncated mean equals target (monotone in mu).
double solve_mu(double sigma, double t, double target_mean) {
  const auto g = [&](double mu) {
    return trunc_mean(mu, sigma, t) - target_mean;
  };
  const double guess = std::log(target_mean) - 0.5 * sigma * sigma;
  auto root = numerics::bracket_and_solve(g, guess - 2.0, guess + 2.0, 80,
                                          1e-11);
  if (!root.converged) {
    throw std::runtime_error("calibrate_truncated_lognormal: mu solve failed");
  }
  return root.x;
}

}  // namespace

TruncatedLogNormalFit calibrate_truncated_lognormal(double target_mean,
                                                    double target_sd,
                                                    double t_cut) {
  if (!(target_mean > 0.0) || !(target_mean < t_cut)) {
    throw std::invalid_argument(
        "calibrate_truncated_lognormal: need 0 < mean < t_cut");
  }
  if (!(target_sd > 0.0)) {
    throw std::invalid_argument("calibrate_truncated_lognormal: sd <= 0");
  }
  // Outer solve on sigma: truncated sd grows monotonically with sigma once
  // mu is re-solved to hold the truncated mean fixed.
  const auto h = [&](double sigma) {
    const double mu = solve_mu(sigma, t_cut, target_mean);
    return trunc_sd(mu, sigma, t_cut) - target_sd;
  };
  TruncatedLogNormalFit fit;
  double lo = 0.05, hi = 3.0;
  double h_lo = h(lo), h_hi = h(hi);
  int guard = 0;
  while (h_lo * h_hi > 0.0 && guard++ < 20) {
    if (h_lo > 0.0) {
      lo *= 0.5;
      h_lo = h(lo);
    } else {
      hi *= 1.5;
      if (hi > 12.0) break;
      h_hi = h(hi);
    }
  }
  if (h_lo * h_hi > 0.0) {
    fit.converged = false;
    // Return the best-effort boundary solution.
    const double sigma = (std::abs(h_lo) < std::abs(h_hi)) ? lo : hi;
    fit.sigma = sigma;
    fit.mu = solve_mu(sigma, t_cut, target_mean);
    fit.tail_mass = 1.0 - LogNormal(fit.mu, fit.sigma).cdf(t_cut);
    return fit;
  }
  auto root = numerics::brent_root(h, lo, hi, 1e-10);
  fit.sigma = root.x;
  fit.mu = solve_mu(fit.sigma, t_cut, target_mean);
  fit.tail_mass = 1.0 - LogNormal(fit.mu, fit.sigma).cdf(t_cut);
  fit.converged = true;
  return fit;
}

}  // namespace gridsub::stats
