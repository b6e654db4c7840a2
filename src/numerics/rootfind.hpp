#pragma once

// Scalar root finding, used by distribution quantile functions and by the
// truncated-moment calibration solver in stats/fit.

#include <functional>

namespace gridsub::numerics {

/// Result of a root search.
struct RootResult {
  double x = 0.0;
  double fx = 0.0;
  int evaluations = 0;
  bool converged = false;
};

/// Brent's root-finding method (inverse quadratic interpolation + secant +
/// bisection) on [a, b]; requires f(a) and f(b) to have opposite signs (or
/// one of them to be zero).
RootResult brent_root(const std::function<double(double)>& f, double a,
                      double b, double xtol = 1e-12, int max_iter = 200);

/// Expands the interval [a, b] geometrically around its initial position
/// until f changes sign, then runs brent_root. Returns converged == false if
/// no sign change is found within `max_expansions`.
RootResult bracket_and_solve(const std::function<double(double)>& f, double a,
                             double b, int max_expansions = 60,
                             double xtol = 1e-12);

}  // namespace gridsub::numerics
