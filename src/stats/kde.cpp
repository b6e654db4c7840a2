#include "stats/kde.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/kahan.hpp"
#include "stats/special.hpp"
#include "stats/summary.hpp"

namespace gridsub::stats {

double KernelDensity::silverman_bandwidth(std::span<const double> sample) {
  if (sample.size() < 2) return 1.0;
  const double sd = stddev(sample);
  const double iqr = quantile(sample, 0.75) - quantile(sample, 0.25);
  double scale = sd;
  if (iqr > 0.0) scale = std::min(scale, iqr / 1.34);
  if (!(scale > 0.0)) scale = std::max(sd, 1e-6);
  return 0.9 * scale *
         std::pow(static_cast<double>(sample.size()), -0.2);
}

KernelDensity::KernelDensity(std::span<const double> sample, double bandwidth)
    : sorted_(sample.begin(), sample.end()), bandwidth_(bandwidth) {
  if (sorted_.empty()) throw std::invalid_argument("KernelDensity: empty");
  std::sort(sorted_.begin(), sorted_.end());
  if (!(bandwidth_ > 0.0)) bandwidth_ = silverman_bandwidth(sorted_);
  if (!(bandwidth_ > 0.0)) bandwidth_ = 1.0;
}

double KernelDensity::pdf(double x) const {
  constexpr double kWindow = 8.0;  // kernels beyond 8h are negligible
  const double lo = x - kWindow * bandwidth_;
  const double hi = x + kWindow * bandwidth_;
  const auto first = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
  const auto last = std::upper_bound(first, sorted_.end(), hi);
  numerics::KahanAccumulator acc;
  for (auto it = first; it != last; ++it) {
    acc.add(normal_pdf((x - *it) / bandwidth_));
  }
  return acc.value() /
         (static_cast<double>(sorted_.size()) * bandwidth_);
}

}  // namespace gridsub::stats
