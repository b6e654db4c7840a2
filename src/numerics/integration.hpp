#pragma once

// Quadrature routines used by the latency-model evaluators.
//
// The paper's expectation formulas (eqs. 1-5) are integral functionals of
// the defective latency CDF F̃_R. On empirical models F̃ is piecewise
// constant/linear, so a cumulative trapezoid over the model's uniform grid
// (with compensated summation) is both exact enough and fast; the tuning
// kernels in core/ tabulate their prefix integrals with it. Adaptive
// Simpson integrates smooth parametric integrands; the tests use it as the
// reference quadrature that production integrals are checked against.
//
// adaptive_simpson is a callable-generic template: passing a lambda (or
// any callable) instantiates a direct-call kernel — no std::function
// construction, no type-erased indirection per sample.

#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace gridsub::numerics {

namespace detail {

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

/// Adaptive Simpson quadrature with absolute tolerance `tol` and a recursion
/// depth cap. Suitable for smooth integrands (parametric densities).
template <typename F>
  requires std::is_invocable_r_v<double, F&, double>
double adaptive_simpson(F&& f, double a, double b, double tol = 1e-9,
                        int max_depth = 30) {
  return detail::adaptive_simpson_impl(f, a, b, tol, max_depth);
}

/// Cumulative trapezoid integral of tabulated samples, written into `out`
/// (resized to y.size()): out[i] = integral of the linear interpolant of y
/// over [0, i*dx], out[0] = 0. Uses compensated summation. Requires a
/// non-empty y and dx > 0.
void cumulative_trapezoid(std::span<const double> y, double dx,
                          std::vector<double>& out);

/// Linear interpolation at `t` of samples y[i] taken at i*dx: 0 for
/// t <= 0 and y.back() from the last node on. DiscretizedLatencyModel reads
/// F̃ through it, and the tuning kernels their cumulative_trapezoid prefix
/// integrals. Requires a non-empty y and dx > 0.
inline double interp_uniform(std::span<const double> y, double dx,
                             double t) {
  if (t <= 0.0) return 0.0;
  const double s = t / dx;
  const auto last = static_cast<double>(y.size() - 1);
  if (s >= last) return y.back();
  const auto i = static_cast<std::size_t>(s);
  const double frac = s - static_cast<double>(i);
  return y[i] + frac * (y[i + 1] - y[i]);
}

}  // namespace gridsub::numerics
