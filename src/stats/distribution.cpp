#include "stats/distribution.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "numerics/rootfind.hpp"

namespace gridsub::stats {

double Distribution::support_upper() const {
  return std::numeric_limits<double>::infinity();
}

double Distribution::quantile(double p) const {
  if (p < 0.0 || p > 1.0) {
    throw std::domain_error("Distribution::quantile: p outside [0,1]");
  }
  if (p == 0.0) return support_lower();
  if (p == 1.0) return support_upper();
  // Bracket around [mean - 4 sd, mean + 4 sd] clipped to the support, then
  // expand geometrically until the root is enclosed.
  const double m = mean();
  const double s = std::sqrt(std::max(variance(), 1e-12));
  double lo = std::max(support_lower(), m - 4.0 * s);
  double hi = std::min(support_upper(), m + 4.0 * s);
  if (!(hi > lo)) {
    lo = support_lower();
    hi = lo + std::max(1.0, std::abs(m));
  }
  const auto g = [this, p](double x) { return cdf(x) - p; };
  // Expand toward the support bounds until sign change.
  int guard = 0;
  while (g(lo) > 0.0 && lo > support_lower() && guard++ < 200) {
    const double width = hi - lo;
    lo = std::max(support_lower(), lo - std::max(width, 1.0));
  }
  guard = 0;
  while (g(hi) < 0.0 && guard++ < 200) {
    const double width = hi - lo;
    hi += std::max(width, 1.0);
    if (hi >= support_upper()) {
      hi = std::nextafter(support_upper(), lo);
      break;
    }
  }
  const auto root = numerics::brent_root(g, lo, hi, 1e-10);
  return root.x;
}

double Distribution::sample(Rng& rng) const {
  return quantile(rng.uniform01());
}

}  // namespace gridsub::stats
