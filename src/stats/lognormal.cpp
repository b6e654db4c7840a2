#include "stats/lognormal.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "stats/special.hpp"

namespace gridsub::stats {

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  if (!(sigma > 0.0)) throw std::invalid_argument("LogNormal: sigma <= 0");
}

LogNormal LogNormal::from_mean_and_sigma_log(double mean, double sigma_log) {
  if (!(mean > 0.0)) {
    throw std::invalid_argument(
        "LogNormal::from_mean_and_sigma_log: mean must be > 0");
  }
  if (!(sigma_log >= 0.0)) {
    throw std::invalid_argument(
        "LogNormal::from_mean_and_sigma_log: sigma_log must be >= 0");
  }
  const double sigma = sigma_log > 0.0 ? sigma_log : 1e-12;
  return LogNormal(std::log(mean) - 0.5 * sigma * sigma, sigma);
}

double LogNormal::pdf(double x) const {
  if (x <= 0.0) return 0.0;
  const double z = (std::log(x) - mu_) / sigma_;
  return normal_pdf(z) / (x * sigma_);
}

double LogNormal::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return normal_cdf((std::log(x) - mu_) / sigma_);
}

double LogNormal::quantile(double p) const {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return support_upper();
  return std::exp(mu_ + sigma_ * normal_quantile(p));
}

double LogNormal::mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }

double LogNormal::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

double LogNormal::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * rng.normal());
}

std::string LogNormal::name() const {
  std::ostringstream os;
  os << "LogNormal(mu=" << mu_ << ",sigma=" << sigma_ << ")";
  return os.str();
}

double LogNormal::truncated_raw_moment(int k, double t) const {
  if (!(t > 0.0)) {
    throw std::invalid_argument("truncated_raw_moment: t must be > 0");
  }
  const double kd = static_cast<double>(k);
  const double lt = std::log(t);
  const double denom = normal_cdf((lt - mu_) / sigma_);
  if (denom <= 0.0) {
    throw std::domain_error("truncated_raw_moment: P(X<=t) == 0");
  }
  const double numer =
      std::exp(kd * mu_ + 0.5 * kd * kd * sigma_ * sigma_) *
      normal_cdf((lt - mu_ - kd * sigma_ * sigma_) / sigma_);
  return numer / denom;
}

}  // namespace gridsub::stats
