#include "numerics/integration.hpp"

#include <stdexcept>

#include "numerics/kahan.hpp"

namespace gridsub::numerics {

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
