#include "stats/gof.hpp"

#include <cmath>
#include <stdexcept>

namespace gridsub::stats {

double dkw_epsilon(std::size_t n, double alpha) {
  if (n == 0) throw std::invalid_argument("dkw_epsilon: n == 0");
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    throw std::invalid_argument("dkw_epsilon: alpha outside (0, 1)");
  }
  return std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(n)));
}

}  // namespace gridsub::stats
