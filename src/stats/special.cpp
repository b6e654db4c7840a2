#include "stats/special.hpp"

#include <cmath>
#include <stdexcept>

namespace gridsub::stats {

namespace {
constexpr double kSqrt2 = 1.4142135623730951;
constexpr double kInvSqrt2Pi = 0.3989422804014327;
}  // namespace

double normal_pdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

double normal_cdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("normal_quantile: p must be in (0,1)");
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

namespace {

// Series expansion of P(a, x), valid for x < a + 1.
double gamma_p_series(double a, double x) {
  const double gln = std::lgamma(a);
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - gln);
}

// Continued fraction for Q(a, x), valid for x >= a + 1 (Lentz's method).
double gamma_q_cf(double a, double x) {
  const double gln = std::lgamma(a);
  constexpr double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-16) break;
  }
  return std::exp(-x + a * std::log(x) - gln) * h;
}

}  // namespace

double gamma_p(double a, double x) {
  if (!(a > 0.0)) throw std::domain_error("gamma_p: a must be > 0");
  if (x < 0.0) throw std::domain_error("gamma_p: x must be >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

}  // namespace gridsub::stats
