#include "numerics/interpolation.hpp"

#include <algorithm>
#include <stdexcept>

namespace gridsub::numerics {

double inverse_monotone(double x0, double dx, std::span<const double> y,
                        double target) {
  if (y.size() < 2) throw std::invalid_argument("inverse_monotone: need >= 2");
  if (!(dx > 0.0)) throw std::invalid_argument("inverse_monotone: dx <= 0");
  if (target <= y.front()) return x0;
  const double x_end = x0 + dx * static_cast<double>(y.size() - 1);
  if (target >= y.back()) return x_end;
  const auto it = std::lower_bound(y.begin(), y.end(), target);
  const auto i = static_cast<std::size_t>(it - y.begin());
  // i >= 1 because target > y.front().
  const double y0 = y[i - 1];
  const double y1 = y[i];
  const double frac = (y1 > y0) ? (target - y0) / (y1 - y0) : 0.0;
  return x0 + dx * (static_cast<double>(i - 1) + frac);
}

}  // namespace gridsub::numerics
