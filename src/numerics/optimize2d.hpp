#pragma once

// Two-dimensional minimization for the delayed-resubmission model.
//
// E_J(t0, t∞) must be minimized over the triangular feasible region
// 0 < t0 < t∞ < 2·t0 (paper §6), possibly with the ratio t∞/t0 fixed
// (paper §6.2) — the ratio-constrained case reduces to 1D and is handled in
// core/. The free 2D case is a grid scan in core/ (one overlap sweep per t0
// serves a whole row of the grid) followed by Nelder-Mead refinement here,
// with infeasible points signalled as +inf.

#include <array>
#include <functional>

namespace gridsub::numerics {

/// Result of a 2D minimization.
struct MinResult2D {
  double x = 0.0;
  double y = 0.0;
  double value = 0.0;
  int evaluations = 0;
};

/// Nelder-Mead simplex minimization started from `start` with initial step
/// sizes `step`. The objective may return +inf outside its feasible region
/// (the simplex contracts away from infeasible vertices).
MinResult2D nelder_mead(
    const std::function<double(double, double)>& f,
    std::array<double, 2> start, std::array<double, 2> step,
    double ftol = 1e-9, int max_iter = 2000);

}  // namespace gridsub::numerics
