#include "exp/fold.hpp"

#include <cmath>

namespace gridsub::exp {

void MomentFold::add(double x) {
  // Neumaier-compensated sum (numerics/kahan.hpp's recurrence, inlined so
  // the fold stays one cache line): correct even when the addend exceeds
  // the running sum in magnitude.
  const double t = sum_ + x;
  if (std::abs(sum_) >= std::abs(x)) {
    compensation_ += (sum_ - t) + x;
  } else {
    compensation_ += (x - t) + sum_;
  }
  sum_ = t;
  // Welford's single-pass M2 for the variance of the mean.
  ++n_;
  const double delta = x - welford_mean_;
  welford_mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - welford_mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double MomentFold::mean() const {
  if (n_ == 0) return 0.0;
  return (sum_ + compensation_) / static_cast<double>(n_);
}

double MomentFold::sem() const {
  if (n_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_ - 1) /
                   static_cast<double>(n_));
}

}  // namespace gridsub::exp
