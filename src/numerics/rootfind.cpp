#include "numerics/rootfind.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace gridsub::numerics {

RootResult brent_root(const std::function<double(double)>& f, double a,
                      double b, double xtol, int max_iter) {
  RootResult res;
  double fa = f(a);
  double fb = f(b);
  res.evaluations = 2;
  if (fa * fb > 0.0) {
    throw std::invalid_argument("brent_root: f(a) and f(b) have same sign");
  }
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  bool mflag = true;
  double d = 0.0;
  for (int it = 0; it < max_iter; ++it) {
    if (fb == 0.0 || std::abs(b - a) < xtol) break;
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant.
      s = b - fb * (b - a) / (fb - fa);
    }
    const double lo = 0.25 * (3.0 * a + b);
    const bool cond =
        (s < std::min(lo, b) || s > std::max(lo, b)) ||
        (mflag && std::abs(s - b) >= 0.5 * std::abs(b - c)) ||
        (!mflag && std::abs(s - b) >= 0.5 * std::abs(c - d)) ||
        (mflag && std::abs(b - c) < xtol) ||
        (!mflag && std::abs(c - d) < xtol);
    if (cond) {
      s = 0.5 * (a + b);
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    ++res.evaluations;
    d = c;
    c = b;
    fc = fb;
    if (fa * fs < 0.0) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  res.x = b;
  res.fx = fb;
  res.converged = true;
  return res;
}

RootResult bracket_and_solve(const std::function<double(double)>& f, double a,
                             double b, int max_expansions, double xtol) {
  if (!(b > a)) throw std::invalid_argument("bracket_and_solve: b <= a");
  double fa = f(a);
  double fb = f(b);
  int evals = 2;
  for (int i = 0; i < max_expansions && fa * fb > 0.0; ++i) {
    const double width = b - a;
    if (std::abs(fa) < std::abs(fb)) {
      a -= width;
      fa = f(a);
    } else {
      b += width;
      fb = f(b);
    }
    ++evals;
  }
  if (fa * fb > 0.0) {
    RootResult res;
    res.converged = false;
    res.evaluations = evals;
    res.x = (std::abs(fa) < std::abs(fb)) ? a : b;
    res.fx = std::min(std::abs(fa), std::abs(fb));
    return res;
  }
  RootResult res = brent_root(f, a, b, xtol);
  res.evaluations += evals;
  return res;
}

}  // namespace gridsub::numerics
