#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "numerics/kahan.hpp"

namespace gridsub::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("mean: empty sample");
  numerics::KahanAccumulator acc;
  for (double x : xs) acc.add(x);
  return acc.value() / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("variance: need >= 2");
  const double m = mean(xs);
  numerics::KahanAccumulator acc;
  for (double x : xs) acc.add((x - m) * (x - m));
  return acc.value() / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double quantile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("quantile: bad p");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto i = static_cast<std::size_t>(h);
  if (i + 1 >= sorted.size()) return sorted.back();
  const double frac = h - static_cast<double>(i);
  return sorted[i] + frac * (sorted[i + 1] - sorted[i]);
}

}  // namespace gridsub::stats
