#pragma once

// Gaussian kernel density estimation.
//
// The delayed-resubmission expectation in the paper's form (eq. 5) needs a
// density f̃_R, which an ECDF does not provide; KDE supplies a smooth
// estimate. Evaluation is windowed over the sorted sample (kernels beyond
// 8 bandwidths contribute < 1e-14), so a full 10^4-point grid over a 10^4
// sample trace evaluates in milliseconds.

#include <span>
#include <vector>

namespace gridsub::stats {

/// Gaussian KDE over a fixed sample.
class KernelDensity {
 public:
  /// `bandwidth` <= 0 selects Silverman's rule of thumb
  /// (0.9 * min(sd, IQR/1.34) * n^(-1/5)). Requires non-empty sample.
  explicit KernelDensity(std::span<const double> sample,
                         double bandwidth = 0.0);

  /// Density estimate at x.
  [[nodiscard]] double pdf(double x) const;

  [[nodiscard]] double bandwidth() const { return bandwidth_; }
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

  /// Silverman's rule-of-thumb bandwidth for a sample.
  static double silverman_bandwidth(std::span<const double> sample);

 private:
  std::vector<double> sorted_;
  double bandwidth_;
};

}  // namespace gridsub::stats
