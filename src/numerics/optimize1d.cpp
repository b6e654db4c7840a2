#include "numerics/optimize1d.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace gridsub::numerics {

namespace {
constexpr double kGolden = 0.6180339887498949;  // (sqrt(5)-1)/2
}

MinResult1D brent_minimize(const std::function<double(double)>& f, double a,
                           double b, double xtol, int max_iter) {
  if (!(b >= a)) throw std::invalid_argument("brent_minimize: b < a");
  MinResult1D res;
  const double golden_step = 1.0 - kGolden;  // ~0.381966
  double x = a + golden_step * (b - a);
  double w = x, v = x;
  double fx = f(x);
  res.evaluations = 1;
  double fw = fx, fv = fx;
  double d = 0.0, e = 0.0;
  for (int it = 0; it < max_iter; ++it) {
    const double m = 0.5 * (a + b);
    const double tol1 = xtol * std::abs(x) + 1e-12;
    const double tol2 = 2.0 * tol1;
    if (std::abs(x - m) <= tol2 - 0.5 * (b - a)) break;
    bool use_golden = true;
    if (std::abs(e) > tol1) {
      // Parabolic fit through (v, fv), (w, fw), (x, fx).
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::abs(q);
      const double e_old = e;
      e = d;
      if (std::abs(p) < std::abs(0.5 * q * e_old) && p > q * (a - x) &&
          p < q * (b - x)) {
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) d = (m > x) ? tol1 : -tol1;
        use_golden = false;
      }
    }
    if (use_golden) {
      e = (x < m) ? b - x : a - x;
      d = golden_step * e;
    }
    const double u =
        (std::abs(d) >= tol1) ? x + d : x + ((d > 0.0) ? tol1 : -tol1);
    const double fu = f(u);
    ++res.evaluations;
    if (fu <= fx) {
      if (u < x) {
        b = x;
      } else {
        a = x;
      }
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      if (u < x) {
        a = u;
      } else {
        b = u;
      }
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  res.x = x;
  res.value = fx;
  return res;
}

MinResult1D scan_then_refine(const std::function<double(double)>& f, double a,
                             double b, std::size_t n_scan, double xtol) {
  if (!(b >= a)) throw std::invalid_argument("scan_then_refine: b < a");
  if (n_scan < 2) n_scan = 2;
  MinResult1D best;
  best.value = std::numeric_limits<double>::infinity();
  const double h = (b - a) / static_cast<double>(n_scan - 1);
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < n_scan; ++i) {
    const double x = a + static_cast<double>(i) * h;
    const double fx = f(x);
    ++best.evaluations;
    if (fx < best.value) {
      best.value = fx;
      best.x = x;
      best_i = i;
    }
  }
  if (!std::isfinite(best.value)) return best;
  const double lo = (best_i == 0) ? a : best.x - h;
  const double hi = (best_i == n_scan - 1) ? b : best.x + h;
  MinResult1D refined = brent_minimize(f, lo, hi, xtol);
  refined.evaluations += best.evaluations;
  if (refined.value <= best.value) return refined;
  best.evaluations = refined.evaluations;
  return best;
}

}  // namespace gridsub::numerics
