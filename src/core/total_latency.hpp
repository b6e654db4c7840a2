#pragma once

// Distribution of the *total* latency J under each submission strategy.
//
// The paper derives E_J and sigma_J; applications (paper §8's future work:
// makespan of real grid applications) need the full law of J. The renewal
// structure of the strategies gives closed survival forms:
//
// * single / multiple submission, timeout t∞, b copies: with
//   s_b(x) = (1 - F̃(x))^b and round-failure probability q = s_b(t∞),
//     S_J(t) = q^k · s_b(t - k·t∞),   k = ⌊t / t∞⌋.
// * delayed resubmission (period t0, cancel at t∞): the survival form of
//   core/delayed_resubmission.hpp.
//
// The class exposes survival/cdf, quantiles (exact segment-local
// inversion), expectation, billed job-seconds, and inverse-transform
// sampling — enough for the workflow/ makespan layer to compute order
// statistics of J across many tasks.

#include <memory>

#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "core/strategy.hpp"
#include "model/discretized.hpp"
#include "stats/rng.hpp"

namespace gridsub::core {

class TotalLatencyDistribution {
 public:
  /// Multiple submission (§5): b parallel copies, collection timeout t∞;
  /// b = 1 is single resubmission (§4). `m` must outlive this object.
  /// Throws std::invalid_argument if b < 1, no round can succeed
  /// (F̃(t∞) == 0) or t∞ is out of (0, horizon].
  static TotalLatencyDistribution multiple(
      const model::DiscretizedLatencyModel& m, int b, double t_inf);

  /// Delayed resubmission (§6): period t0, cancellation timeout t∞ with
  /// 0 < t0 < t∞ <= 2·t0.
  static TotalLatencyDistribution delayed(
      const model::DiscretizedLatencyModel& m, double t0, double t_inf);

  TotalLatencyDistribution(TotalLatencyDistribution&&) noexcept = default;
  TotalLatencyDistribution& operator=(TotalLatencyDistribution&&) noexcept =
      default;

  [[nodiscard]] StrategyKind kind() const { return kind_; }
  [[nodiscard]] int b() const { return b_; }
  [[nodiscard]] double t0() const { return t0_; }
  [[nodiscard]] double t_inf() const { return t_inf_; }

  /// P(J > t). Continuous, strictly positive, decays geometrically.
  [[nodiscard]] double survival(double t) const;

  /// P(J <= t) = 1 - survival(t).
  [[nodiscard]] double cdf(double t) const { return 1.0 - survival(t); }

  /// E[J] (closed form, not quadrature over survival).
  [[nodiscard]] double expectation() const { return expectation_; }

  /// sigma_J.
  [[nodiscard]] double std_deviation() const { return std_deviation_; }

  /// Expected billed job-seconds per task: E_J for single, b·E_J for
  /// multiple, the overlap-corrected form for delayed.
  [[nodiscard]] double expected_job_seconds() const { return job_seconds_; }

  /// Smallest t with P(J <= t) >= p, for p in [0, 1). Exact segment-local
  /// inversion for single/multiple; bracketed bisection for delayed.
  [[nodiscard]] double quantile(double p) const;

  /// Inverse-transform sample of J.
  [[nodiscard]] double sample(stats::Rng& rng) const {
    return quantile(rng.uniform01());
  }

  [[nodiscard]] const model::DiscretizedLatencyModel& latency_model() const {
    return *model_;
  }

 private:
  TotalLatencyDistribution() = default;

  /// Survival within one round: (1 - F̃(x))^b for x in [0, t∞].
  [[nodiscard]] double round_survival(double x) const;

  const model::DiscretizedLatencyModel* model_ = nullptr;
  StrategyKind kind_ = StrategyKind::kSingleResubmission;
  int b_ = 1;
  double t0_ = 0.0;
  double t_inf_ = 0.0;
  double q_ = 0.0;  ///< round-failure probability
  double expectation_ = 0.0;
  double std_deviation_ = 0.0;
  double job_seconds_ = 0.0;
  /// Only set for the delayed strategy (survival needs its machinery).
  std::unique_ptr<DelayedResubmission> delayed_;
};

}  // namespace gridsub::core
