#pragma once

// Quadrature routines used by the latency-model evaluators.
//
// The paper's expectation formulas (eqs. 1-5) are integral functionals of
// the defective latency CDF F̃_R. On empirical models F̃ is piecewise
// constant/linear, so composite trapezoid rules on uniform grids (with
// compensated summation) are both exact enough and fast; adaptive Simpson is
// provided for smooth parametric integrands and for cross-checking.
//
// The function-of-one-double routines are callable-generic templates:
// passing a lambda (or any callable) instantiates a direct-call kernel — no
// std::function construction, no type-erased indirection per sample, which
// matters when a tuning objective evaluates thousands of integrals per fit.

#include <cmath>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "numerics/kahan.hpp"

namespace gridsub::numerics {

namespace detail {

template <typename F>
double trapezoid_impl(F&& f, double a, double b, std::size_t n) {
  if (n < 1) throw std::invalid_argument("trapezoid: n must be >= 1");
  if (b < a) throw std::invalid_argument("trapezoid: requires b >= a");
  if (a == b) return 0.0;
  const double h = (b - a) / static_cast<double>(n);
  KahanAccumulator acc(0.5 * (f(a) + f(b)));
  for (std::size_t i = 1; i < n; ++i) {
    acc.add(f(a + static_cast<double>(i) * h));
  }
  return acc.value() * h;
}

template <typename F>
double simpson_impl(F&& f, double a, double b, std::size_t n) {
  if (n < 2) n = 2;
  if (n % 2 != 0) ++n;
  if (b < a) throw std::invalid_argument("simpson: requires b >= a");
  if (a == b) return 0.0;
  const double h = (b - a) / static_cast<double>(n);
  KahanAccumulator acc(f(a) + f(b));
  for (std::size_t i = 1; i < n; ++i) {
    const double x = a + static_cast<double>(i) * h;
    acc.add((i % 2 == 1 ? 4.0 : 2.0) * f(x));
  }
  return acc.value() * h / 3.0;
}

template <typename F>
double adaptive_simpson_step(F&& f, double a, double b, double fa, double fm,
                             double fb, double whole, double tol, int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double h = b - a;
  const double left = (h / 12.0) * (fa + 4.0 * flm + fm);
  const double right = (h / 12.0) * (fm + 4.0 * frm + fb);
  const double delta = left + right - whole;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive_simpson_step(f, a, m, fa, flm, fm, left, 0.5 * tol,
                               depth - 1) +
         adaptive_simpson_step(f, m, b, fm, frm, fb, right, 0.5 * tol,
                               depth - 1);
}

template <typename F>
double adaptive_simpson_impl(F&& f, double a, double b, double tol,
                             int max_depth) {
  if (b < a) throw std::invalid_argument("adaptive_simpson: requires b >= a");
  if (a == b) return 0.0;
  const double m = 0.5 * (a + b);
  const double fa = f(a);
  const double fm = f(m);
  const double fb = f(b);
  const double whole = ((b - a) / 6.0) * (fa + 4.0 * fm + fb);
  return adaptive_simpson_step(f, a, b, fa, fm, fb, whole, tol, max_depth);
}

}  // namespace detail

/// Composite trapezoid rule for a callable on [a, b] with n uniform
/// subintervals. Requires n >= 1 and b >= a.
template <typename F>
  requires std::is_invocable_r_v<double, F&, double>
double trapezoid(F&& f, double a, double b, std::size_t n) {
  return detail::trapezoid_impl(f, a, b, n);
}

/// Trapezoid rule over tabulated samples y[i] = f(a + i*dx), i = 0..y.size()-1.
/// Requires y.size() >= 2 and dx > 0.
double trapezoid_tabulated(std::span<const double> y, double dx);

/// Composite Simpson rule (n is rounded up to the next even value).
template <typename F>
  requires std::is_invocable_r_v<double, F&, double>
double simpson(F&& f, double a, double b, std::size_t n) {
  return detail::simpson_impl(f, a, b, n);
}

/// Adaptive Simpson quadrature with absolute tolerance `tol` and a recursion
/// depth cap. Suitable for smooth integrands (parametric densities).
template <typename F>
  requires std::is_invocable_r_v<double, F&, double>
double adaptive_simpson(F&& f, double a, double b, double tol = 1e-9,
                        int max_depth = 30) {
  return detail::adaptive_simpson_impl(f, a, b, tol, max_depth);
}

/// Cumulative trapezoid integral of tabulated samples: returns c with
/// c[i] = integral of the linear interpolant of y over [0, i*dx];
/// c[0] = 0 and c.size() == y.size(). Uses compensated summation.
std::vector<double> cumulative_trapezoid(std::span<const double> y, double dx);

/// In-place variant writing into `out` (resized to y.size()).
void cumulative_trapezoid(std::span<const double> y, double dx,
                          std::vector<double>& out);

}  // namespace gridsub::numerics
