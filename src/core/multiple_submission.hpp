#pragma once

// Multiple-submission strategy (paper §5).
//
// b copies of the job are submitted at once; when one starts, the rest are
// canceled; if none starts before t∞ the whole collection is canceled and
// resubmitted. The latency CDF of the collection is 1 - (1 - F̃)^b, so the
// single-resubmission formulas apply with that substitution (paper eqs. 3
// and 4):
//
//   E_J(t∞)  = A(t∞) / p,                 A(t) = ∫₀^t (1-F̃(u))^b du
//   E[J²]    = 2 B(t∞)/p + 2 t∞ q A(t∞)/p²,  B(t) = ∫₀^t u (1-F̃(u))^b du
//   with q = (1-F̃(t∞))^b,  p = 1 - q.
//
// (The E[J²] form follows from E[J^k] = k ∫ t^{k-1} P(J>t) dt on the
// renewal structure; expanding sigma² = E[J²] - E_J² reproduces eq. 4
// exactly.) Prefix integrals of (1-F̃)^b are cached on the model grid so an
// evaluation is O(1) and a full timeout sweep is O(grid).

#include "core/strategy.hpp"
#include "model/discretized.hpp"

namespace gridsub::core {

class MultipleSubmission {
 public:
  /// Keeps a reference to `m` (must outlive this object). Requires b >= 1.
  MultipleSubmission(const model::DiscretizedLatencyModel& m, int b);

  /// E_J at collection timeout t∞ (+inf if P(success by t∞) == 0).
  [[nodiscard]] double expectation(double t_inf) const;

  /// E[J²] at t∞.
  [[nodiscard]] double second_moment(double t_inf) const;

  /// sigma_J at t∞ (paper eq. 4 via the moment form).
  [[nodiscard]] double std_deviation(double t_inf) const;

  [[nodiscard]] StrategyMetrics evaluate(double t_inf) const;

  /// Expected number of jobs submitted until success: b / p(t∞) — the
  /// infrastructure-load counterpart of E_J.
  [[nodiscard]] double expected_submissions(double t_inf) const;

  /// Minimizes E_J over t∞ in [t_min, t_max] (defaults: one grid step to
  /// the horizon). Grid scan + Brent refinement. E_J(t) = A(t)/p >= A(t)
  /// and A does not decrease, so the scan stops at the first node whose
  /// A(t), shrunk by kFloorSlack, reaches the best E_J so far; the best
  /// node and the Brent bracket are the full scan's.
  [[nodiscard]] TimeoutOptimum optimize(double t_min = -1.0,
                                        double t_max = -1.0) const;

  [[nodiscard]] int b() const { return b_; }
  [[nodiscard]] const model::DiscretizedLatencyModel& latency_model() const {
    return model_;
  }

 private:
  /// Success probability by t∞: 1 - (1-F̃(t∞))^b.
  [[nodiscard]] double success_probability(double t_inf) const;
  /// expectation(t∞) given a = A(t∞), for a scan that has already read A.
  [[nodiscard]] double expectation_at(double t_inf, double a) const;
  /// Interpolated prefix integrals.
  [[nodiscard]] double integral_a(double t) const;
  [[nodiscard]] double integral_b(double t) const;

  const model::DiscretizedLatencyModel& model_;
  int b_;
  std::vector<double> surv_pow_;    ///< (1-F̃)^b at grid nodes
  std::vector<double> prefix_a_;    ///< ∫ (1-F̃)^b
  std::vector<double> prefix_b_;    ///< ∫ u (1-F̃)^b
};

}  // namespace gridsub::core
