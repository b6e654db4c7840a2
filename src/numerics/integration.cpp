#include "numerics/integration.hpp"

#include <cmath>
#include <stdexcept>

#include "numerics/kahan.hpp"

namespace gridsub::numerics {

double trapezoid_tabulated(std::span<const double> y, double dx) {
  if (y.size() < 2) {
    throw std::invalid_argument("trapezoid_tabulated: need >= 2 samples");
  }
  if (!(dx > 0.0)) {
    throw std::invalid_argument("trapezoid_tabulated: dx must be > 0");
  }
  KahanAccumulator acc(0.5 * (y.front() + y.back()));
  for (std::size_t i = 1; i + 1 < y.size(); ++i) acc.add(y[i]);
  return acc.value() * dx;
}

std::vector<double> cumulative_trapezoid(std::span<const double> y,
                                         double dx) {
  std::vector<double> out;
  cumulative_trapezoid(y, dx, out);
  return out;
}

void cumulative_trapezoid(std::span<const double> y, double dx,
                          std::vector<double>& out) {
  if (y.empty()) {
    throw std::invalid_argument("cumulative_trapezoid: empty input");
  }
  if (!(dx > 0.0)) {
    throw std::invalid_argument("cumulative_trapezoid: dx must be > 0");
  }
  out.resize(y.size());
  out[0] = 0.0;
  KahanAccumulator acc;
  for (std::size_t i = 1; i < y.size(); ++i) {
    acc.add(0.5 * dx * (y[i - 1] + y[i]));
    out[i] = acc.value();
  }
}

}  // namespace gridsub::numerics
