#include "stats/gamma.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "stats/special.hpp"

namespace gridsub::stats {

GammaDist::GammaDist(double shape, double scale)
    : shape_(shape), scale_(scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("GammaDist: shape and scale must be > 0");
  }
}

double GammaDist::pdf(double x) const {
  if (x < 0.0) return 0.0;
  if (x == 0.0) {
    if (shape_ < 1.0) return 0.0;  // boundary of a diverging density
    if (shape_ == 1.0) return 1.0 / scale_;
    return 0.0;
  }
  const double log_pdf = (shape_ - 1.0) * std::log(x) - x / scale_ -
                         std::lgamma(shape_) - shape_ * std::log(scale_);
  return std::exp(log_pdf);
}

double GammaDist::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return gamma_p(shape_, x / scale_);
}

double GammaDist::mean() const { return shape_ * scale_; }

double GammaDist::variance() const { return shape_ * scale_ * scale_; }

double GammaDist::sample(Rng& rng) const {
  // Marsaglia & Tsang (2000). For k < 1 use the boost
  // Gamma(k) = Gamma(k+1) * U^(1/k).
  double k = shape_;
  double boost = 1.0;
  if (k < 1.0) {
    boost = std::pow(rng.uniform01(), 1.0 / k);
    k += 1.0;
  }
  const double d = k - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform01();
    if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v * scale_;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return boost * d * v * scale_;
    }
  }
}

std::string GammaDist::name() const {
  std::ostringstream os;
  os << "Gamma(k=" << shape_ << ",theta=" << scale_ << ")";
  return os.str();
}

}  // namespace gridsub::stats
