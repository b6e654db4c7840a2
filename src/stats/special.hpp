#pragma once

// Special functions backing the parametric distributions: standard normal
// pdf/cdf/quantile and the regularized incomplete gamma function. These are
// standard numerics (Acklam's inverse-normal rational approximation refined
// with one Halley step; series/continued-fraction incomplete gamma).

namespace gridsub::stats {

/// Standard normal density.
double normal_pdf(double x);

/// Standard normal CDF, accurate in both tails (erfc based).
double normal_cdf(double x);

/// Inverse standard normal CDF for p in (0, 1). Accurate to ~1e-15 after
/// Halley refinement. Throws std::domain_error outside (0, 1).
double normal_quantile(double p);

/// Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.
double gamma_p(double a, double x);

}  // namespace gridsub::stats
