#pragma once

// One-dimensional minimization.
//
// Optimal timeouts (t∞ for single/multiple submission) minimize E_J(t∞),
// a function that is piecewise-smooth on empirical models with possible
// plateaus. The robust recipe used throughout gridsub is: coarse grid scan
// to bracket the global minimum, then Brent refinement inside the bracket.

#include <functional>

namespace gridsub::numerics {

/// Result of a scalar minimization.
struct MinResult1D {
  double x = 0.0;        ///< argmin
  double value = 0.0;    ///< f(argmin)
  int evaluations = 0;   ///< number of objective evaluations
};

/// Brent's method (golden section + successive parabolic interpolation) on
/// [a, b]. f must be unimodal on [a, b] for a guaranteed global result.
MinResult1D brent_minimize(const std::function<double(double)>& f, double a,
                           double b, double xtol = 1e-8, int max_iter = 200);

/// Global strategy: evaluate f on `n_scan` uniform points of [a, b], then
/// refine around the best grid point with Brent inside the two neighbouring
/// cells. Handles multimodal objectives such as E_J on raw ECDF models.
MinResult1D scan_then_refine(const std::function<double(double)>& f, double a,
                             double b, std::size_t n_scan = 256,
                             double xtol = 1e-6);

}  // namespace gridsub::numerics
