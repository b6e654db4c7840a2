#include "model/discretized.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "model/empirical_latency.hpp"
#include "numerics/integration.hpp"
#include "numerics/interpolation.hpp"

namespace gridsub::model {

DiscretizedLatencyModel::DiscretizedLatencyModel(const LatencyModel& source,
                                                 double step)
    : step_(step), horizon_(source.horizon()) {
  if (!(step > 0.0) || !(step <= horizon_)) {
    throw std::invalid_argument(
        "DiscretizedLatencyModel: need 0 < step <= horizon");
  }
  const auto n =
      static_cast<std::size_t>(std::ceil(horizon_ / step_)) + 1;
  ftilde_.resize(n);
  double prev = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = std::min(t_at(i), horizon_);
    double v = source.ftilde(t);
    v = std::clamp(v, prev, 1.0);  // enforce monotonicity under roundoff
    ftilde_[i] = v;
    prev = v;
  }
  rho_ = 1.0 - ftilde_.back();
  source_name_ = source.name();
}

DiscretizedLatencyModel DiscretizedLatencyModel::from_trace(
    const traces::Trace& trace, double step) {
  const EmpiricalLatencyModel empirical(trace);
  return DiscretizedLatencyModel(empirical, step);
}

DiscretizedLatencyModel DiscretizedLatencyModel::from_grid(
    std::vector<double> ftilde, double step, std::string name) {
  if (ftilde.size() < 2) {
    throw std::invalid_argument("from_grid: need at least two nodes");
  }
  if (!(step > 0.0)) throw std::invalid_argument("from_grid: step <= 0");
  if (ftilde.front() != 0.0) {
    throw std::invalid_argument("from_grid: ftilde[0] must be 0");
  }
  double prev = 0.0;
  for (const double v : ftilde) {
    if (!(v >= prev) || !(v <= 1.0)) {
      throw std::invalid_argument(
          "from_grid: grid must be non-decreasing within [0, 1]");
    }
    prev = v;
  }
  DiscretizedLatencyModel m;
  m.step_ = step;
  m.horizon_ = step * static_cast<double>(ftilde.size() - 1);
  m.ftilde_ = std::move(ftilde);
  m.rho_ = 1.0 - m.ftilde_.back();
  m.source_name_ = std::move(name);
  return m;
}

double DiscretizedLatencyModel::ftilde(double t) const {
  return numerics::interp_uniform(ftilde_, step_, t);
}

double DiscretizedLatencyModel::density(double t) const {
  if (t <= 0.0 || t >= horizon_) return 0.0;
  const double lo = std::max(t - step_, 0.0);
  const double hi = std::min(t + step_, horizon_);
  return (ftilde(hi) - ftilde(lo)) / (hi - lo);
}

double DiscretizedLatencyModel::sample(stats::Rng& rng) const {
  const double u = rng.uniform01();
  if (u > ftilde_.back()) return kNeverStarts;
  return numerics::inverse_monotone(0.0, step_, ftilde_, u);
}

std::string DiscretizedLatencyModel::name() const {
  std::ostringstream os;
  os << "Discretized(" << source_name_ << ",step=" << step_ << ")";
  return os.str();
}

}  // namespace gridsub::model
