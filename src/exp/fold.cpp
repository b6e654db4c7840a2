#include "exp/fold.hpp"

#include <cmath>

namespace gridsub::exp {

void MomentFold::add(double x) {
  sum_.add(x);
  // Welford's single-pass M2 for the variance of the mean.
  ++n_;
  const double delta = x - welford_mean_;
  welford_mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - welford_mean_);
  if (x > max_) max_ = x;
}

double MomentFold::mean() const {
  if (n_ == 0) return 0.0;
  return sum_.value() / static_cast<double>(n_);
}

double MomentFold::sem() const {
  if (n_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_ - 1) /
                   static_cast<double>(n_));
}

}  // namespace gridsub::exp
