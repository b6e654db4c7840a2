#include "core/total_latency.hpp"

#include <cmath>
#include <stdexcept>

namespace gridsub::core {

namespace {

/// Bisection for a continuous decreasing function: smallest t in [lo, hi]
/// with fn(t) <= target (fn(lo) >= target >= fn(hi) assumed).
template <typename Fn>
double bisect_survival(Fn&& fn, double lo, double hi, double target) {
  for (int iter = 0; iter < 200 && hi - lo > 1e-9 * (1.0 + hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fn(mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

TotalLatencyDistribution TotalLatencyDistribution::multiple(
    const model::DiscretizedLatencyModel& m, int b, double t_inf) {
  if (b < 1) {
    throw std::invalid_argument("TotalLatencyDistribution: b < 1");
  }
  if (!(t_inf > 0.0) || t_inf > m.horizon()) {
    throw std::invalid_argument(
        "TotalLatencyDistribution: t_inf out of (0, horizon]");
  }
  TotalLatencyDistribution d;
  d.model_ = &m;
  d.kind_ = b == 1 ? StrategyKind::kSingleResubmission
                   : StrategyKind::kMultipleSubmission;
  d.b_ = b;
  d.t_inf_ = t_inf;
  d.q_ = std::pow(m.survival_at(t_inf), b);
  if (!(d.q_ < 1.0)) {
    throw std::invalid_argument(
        "TotalLatencyDistribution: strategy can never succeed "
        "(F~(t_inf) == 0)");
  }
  const MultipleSubmission impl(m, b);
  const StrategyMetrics metrics = impl.evaluate(t_inf);
  d.expectation_ = metrics.expectation;
  d.std_deviation_ = metrics.std_deviation;
  d.job_seconds_ = static_cast<double>(b) * metrics.expectation;
  return d;
}

TotalLatencyDistribution TotalLatencyDistribution::delayed(
    const model::DiscretizedLatencyModel& m, double t0, double t_inf) {
  TotalLatencyDistribution d;
  d.model_ = &m;
  d.kind_ = StrategyKind::kDelayedResubmission;
  d.t0_ = t0;
  d.t_inf_ = t_inf;
  d.delayed_ = std::make_unique<DelayedResubmission>(m);
  if (!d.delayed_->feasible(t0, t_inf)) {
    throw std::invalid_argument(
        "TotalLatencyDistribution: infeasible (t0, t_inf), need "
        "0 < t0 < t_inf <= 2*t0 <= horizon");
  }
  d.q_ = m.survival_at(t_inf);
  if (!(d.q_ < 1.0)) {
    throw std::invalid_argument(
        "TotalLatencyDistribution: strategy can never succeed "
        "(F~(t_inf) == 0)");
  }
  const StrategyMetrics metrics = d.delayed_->evaluate(t0, t_inf);
  d.expectation_ = metrics.expectation;
  d.std_deviation_ = metrics.std_deviation;
  d.job_seconds_ = d.delayed_->expected_job_seconds(t0, t_inf);
  return d;
}

double TotalLatencyDistribution::round_survival(double x) const {
  const double s = model_->survival_at(x);
  return b_ == 1 ? s : std::pow(s, b_);
}

double TotalLatencyDistribution::survival(double t) const {
  if (t <= 0.0) return 1.0;
  if (kind_ == StrategyKind::kDelayedResubmission) {
    return delayed_->survival(t, t0_, t_inf_);
  }
  const double k = std::floor(t / t_inf_);
  const double x = t - k * t_inf_;
  return std::pow(q_, k) * round_survival(x);
}

double TotalLatencyDistribution::quantile(double p) const {
  if (!(p >= 0.0) || p >= 1.0) {
    throw std::invalid_argument(
        "TotalLatencyDistribution::quantile: p outside [0, 1)");
  }
  const double target = 1.0 - p;  // survival level to hit
  if (target >= 1.0) return 0.0;

  if (kind_ == StrategyKind::kDelayedResubmission) {
    // Bracket by doubling: survival decays at least geometrically with
    // rate q per t0 period.
    double hi = t_inf_;
    while (survival(hi) > target) hi *= 2.0;
    return bisect_survival([this](double t) { return survival(t); }, 0.0,
                           hi, target);
  }

  // Segment-local inversion: segment k covers survival in [q^{k+1}, q^k].
  double k = 0.0;
  if (q_ > 0.0) {
    k = std::max(0.0, std::floor(std::log(target) / std::log(q_)));
    // Guard against roundoff at the segment edge.
    while (k > 0.0 && std::pow(q_, k) < target) k -= 1.0;
    while (std::pow(q_, k + 1.0) >= target) k += 1.0;
  }
  const double qk = std::pow(q_, k);
  const double local = target / qk;  // round survival to reach, in (q, 1]
  const double x = bisect_survival(
      [this](double t) { return round_survival(t); }, 0.0, t_inf_, local);
  return k * t_inf_ + x;
}

}  // namespace gridsub::core
