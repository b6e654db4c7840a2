#include "model/parametric_latency.hpp"

#include <sstream>
#include <stdexcept>

namespace gridsub::model {

ParametricLatencyModel::ParametricLatencyModel(stats::DistributionPtr bulk,
                                               double fault_ratio,
                                               double horizon)
    : bulk_(std::move(bulk)), fault_ratio_(fault_ratio), horizon_(horizon) {
  if (!bulk_) throw std::invalid_argument("ParametricLatencyModel: null bulk");
  if (!(fault_ratio >= 0.0 && fault_ratio < 1.0)) {
    throw std::invalid_argument(
        "ParametricLatencyModel: fault_ratio outside [0,1)");
  }
  if (!(horizon > 0.0)) {
    throw std::invalid_argument("ParametricLatencyModel: horizon <= 0");
  }
  bulk_cdf_at_horizon_ = bulk_->cdf(horizon_);
}

double ParametricLatencyModel::ftilde(double t) const {
  if (t <= 0.0) return 0.0;
  if (t >= horizon_) return (1.0 - fault_ratio_) * bulk_cdf_at_horizon_;
  return (1.0 - fault_ratio_) * bulk_->cdf(t);
}

double ParametricLatencyModel::density(double t) const {
  if (t <= 0.0 || t >= horizon_) return 0.0;
  return (1.0 - fault_ratio_) * bulk_->pdf(t);
}

double ParametricLatencyModel::outlier_ratio() const {
  return 1.0 - (1.0 - fault_ratio_) * bulk_cdf_at_horizon_;
}

double ParametricLatencyModel::sample(stats::Rng& rng) const {
  if (fault_ratio_ > 0.0 && rng.bernoulli(fault_ratio_)) return kNeverStarts;
  const double latency = bulk_->sample(rng);
  // Beyond the horizon the job is canceled by the campaign / strategy and
  // never observed to start.
  return latency > horizon_ ? kNeverStarts : latency;
}

std::string ParametricLatencyModel::name() const {
  std::ostringstream os;
  os << "Parametric(" << bulk_->name() << ",faults=" << fault_ratio_ << ")";
  return os.str();
}

}  // namespace gridsub::model
