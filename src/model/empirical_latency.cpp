#include "model/empirical_latency.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace gridsub::model {

namespace {
std::vector<double> completed_sorted(const traces::Trace& trace) {
  auto v = trace.completed_latencies();
  if (v.empty()) {
    throw std::invalid_argument(
        "EmpiricalLatencyModel: trace has no completed probes");
  }
  std::sort(v.begin(), v.end());
  return v;
}
}  // namespace

EmpiricalLatencyModel::EmpiricalLatencyModel(const traces::Trace& trace,
                                             double kde_bandwidth)
    : sorted_latencies_(completed_sorted(trace)),
      total_(trace.size()),
      horizon_(trace.timeout()),
      kde_(sorted_latencies_, kde_bandwidth),
      source_name_(trace.name()) {
  rho_ = 1.0 - static_cast<double>(sorted_latencies_.size()) /
                   static_cast<double>(total_);
}

double EmpiricalLatencyModel::ftilde(double t) const {
  if (t <= 0.0) return 0.0;
  const double tt = std::min(t, horizon_);
  const auto it = std::upper_bound(sorted_latencies_.begin(),
                                   sorted_latencies_.end(), tt);
  return static_cast<double>(it - sorted_latencies_.begin()) /
         static_cast<double>(total_);
}

double EmpiricalLatencyModel::density(double t) const {
  if (t <= 0.0 || t >= horizon_) return 0.0;
  return (1.0 - rho_) * kde_.pdf(t);
}

double EmpiricalLatencyModel::sample(stats::Rng& rng) const {
  const auto idx = static_cast<std::size_t>(rng.uniform_int(total_));
  if (idx >= sorted_latencies_.size()) return kNeverStarts;
  return sorted_latencies_[idx];
}

std::string EmpiricalLatencyModel::name() const {
  std::ostringstream os;
  os << "Empirical(" << source_name_ << ",n=" << total_ << ",rho=" << rho_
     << ")";
  return os.str();
}

}  // namespace gridsub::model
