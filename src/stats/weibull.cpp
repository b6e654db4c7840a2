#include "stats/weibull.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace gridsub::stats {

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("Weibull: shape and scale must be > 0");
  }
}

double Weibull::pdf(double x) const {
  if (x < 0.0) return 0.0;
  if (x == 0.0) {
    if (shape_ < 1.0) return 0.0;  // density diverges; report 0 boundary
    if (shape_ == 1.0) return 1.0 / scale_;
    return 0.0;
  }
  const double z = x / scale_;
  return (shape_ / scale_) * std::pow(z, shape_ - 1.0) *
         std::exp(-std::pow(z, shape_));
}

double Weibull::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return -std::expm1(-std::pow(x / scale_, shape_));
}

double Weibull::quantile(double p) const {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return support_upper();
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

double Weibull::mean() const {
  return scale_ * std::exp(std::lgamma(1.0 + 1.0 / shape_));
}

double Weibull::variance() const {
  const double g1 = std::exp(std::lgamma(1.0 + 1.0 / shape_));
  const double g2 = std::exp(std::lgamma(1.0 + 2.0 / shape_));
  return scale_ * scale_ * (g2 - g1 * g1);
}

double Weibull::sample(Rng& rng) const {
  return scale_ * std::pow(-std::log(rng.uniform01()), 1.0 / shape_);
}

std::string Weibull::name() const {
  std::ostringstream os;
  os << "Weibull(k=" << shape_ << ",lambda=" << scale_ << ")";
  return os.str();
}

}  // namespace gridsub::stats
