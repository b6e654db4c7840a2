#include "stats/shifted.hpp"

#include <sstream>
#include <stdexcept>

namespace gridsub::stats {

Shifted::Shifted(DistributionPtr inner, double shift)
    : inner_(std::move(inner)), shift_(shift) {
  if (!inner_) throw std::invalid_argument("Shifted: null inner");
}

double Shifted::pdf(double x) const { return inner_->pdf(x - shift_); }

double Shifted::cdf(double x) const { return inner_->cdf(x - shift_); }

double Shifted::quantile(double p) const {
  return shift_ + inner_->quantile(p);
}

double Shifted::mean() const { return shift_ + inner_->mean(); }

double Shifted::variance() const { return inner_->variance(); }

double Shifted::sample(Rng& rng) const { return shift_ + inner_->sample(rng); }

double Shifted::support_lower() const {
  return shift_ + inner_->support_lower();
}

double Shifted::support_upper() const {
  return shift_ + inner_->support_upper();
}

std::string Shifted::name() const {
  std::ostringstream os;
  os << "Shifted(" << inner_->name() << ",+" << shift_ << ")";
  return os.str();
}

}  // namespace gridsub::stats
