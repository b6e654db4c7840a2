#include "core/multiple_submission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numerics/integration.hpp"
#include "numerics/optimize1d.hpp"

namespace gridsub::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

MultipleSubmission::MultipleSubmission(
    const model::DiscretizedLatencyModel& m, int b)
    : model_(m), b_(b) {
  if (b < 1) throw std::invalid_argument("MultipleSubmission: b < 1");
  const auto grid = model_.ftilde_grid();
  const double step = model_.step();
  surv_pow_.resize(grid.size());
  std::vector<double> u_surv_pow(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double s = 1.0 - grid[i];
    const double sp = (b_ == 1) ? s : std::pow(s, static_cast<double>(b_));
    surv_pow_[i] = sp;
    u_surv_pow[i] = model_.t_at(i) * sp;
  }
  numerics::cumulative_trapezoid(surv_pow_, step, prefix_a_);
  numerics::cumulative_trapezoid(u_surv_pow, step, prefix_b_);
}

double MultipleSubmission::success_probability(double t_inf) const {
  const double s = 1.0 - model_.ftilde(t_inf);
  const double q = (b_ == 1) ? s : std::pow(s, static_cast<double>(b_));
  return 1.0 - q;
}

// prefix[i] is the integral up to i*step; linear interpolation matches the
// trapezoid construction only approximately between nodes, which is fine at
// the step sizes used (the integrand is bounded by 1).
double MultipleSubmission::integral_a(double t) const {
  return numerics::interp_uniform(prefix_a_, model_.step(), t);
}

double MultipleSubmission::integral_b(double t) const {
  return numerics::interp_uniform(prefix_b_, model_.step(), t);
}

double MultipleSubmission::expectation(double t_inf) const {
  if (!(t_inf > 0.0)) return kInf;
  return expectation_at(t_inf, integral_a(t_inf));
}

double MultipleSubmission::expectation_at(double t_inf, double a) const {
  const double p = success_probability(t_inf);
  if (!(p > 0.0)) return kInf;
  return a / p;
}

double MultipleSubmission::second_moment(double t_inf) const {
  if (!(t_inf > 0.0)) return kInf;
  const double p = success_probability(t_inf);
  if (!(p > 0.0)) return kInf;
  const double q = 1.0 - p;
  const double a = integral_a(t_inf);
  const double bint = integral_b(t_inf);
  return 2.0 * bint / p + 2.0 * t_inf * q * a / (p * p);
}

double MultipleSubmission::std_deviation(double t_inf) const {
  const double ej = expectation(t_inf);
  if (!std::isfinite(ej)) return kInf;
  const double var = second_moment(t_inf) - ej * ej;
  return std::sqrt(std::max(var, 0.0));
}

StrategyMetrics MultipleSubmission::evaluate(double t_inf) const {
  StrategyMetrics m;
  m.expectation = expectation(t_inf);
  m.std_deviation = std_deviation(t_inf);
  return m;
}

double MultipleSubmission::expected_submissions(double t_inf) const {
  const double p = success_probability(t_inf);
  if (!(p > 0.0)) return kInf;
  return static_cast<double>(b_) / p;
}

TimeoutOptimum MultipleSubmission::optimize(double t_min,
                                            double t_max) const {
  const double step = model_.step();
  const double lo = (t_min > 0.0) ? t_min : step;
  const double hi = (t_max > 0.0) ? std::min(t_max, model_.horizon())
                                  : model_.horizon();
  if (!(hi > lo)) {
    throw std::invalid_argument("MultipleSubmission::optimize: bad bounds");
  }
  // Grid scan at node resolution (cheap: O(1) per node), then refine.
  double best_t = lo;
  double best_v = expectation(lo);
  const auto i_lo = static_cast<std::size_t>(std::ceil(lo / step));
  const auto i_hi = static_cast<std::size_t>(
      std::min(std::floor(hi / step),
               static_cast<double>(model_.grid_size() - 1)));
  for (std::size_t i = i_lo; i <= i_hi; ++i) {
    const double t = model_.t_at(i);
    const double a = integral_a(t);
    // E_J(t') >= A(t') >= A(t) at every later node t': none can win.
    if (a * (1.0 - kFloorSlack) >= best_v) break;
    const double v = expectation_at(t, a);
    if (v < best_v) {
      best_v = v;
      best_t = t;
    }
  }
  const double r_lo = std::max(lo, best_t - step);
  const double r_hi = std::min(hi, best_t + step);
  const auto refined = numerics::brent_minimize(
      [this](double t) { return expectation(t); }, r_lo, r_hi, 1e-6);
  TimeoutOptimum opt;
  if (refined.value < best_v) {
    opt.t_inf = refined.x;
    opt.metrics = evaluate(refined.x);
  } else {
    opt.t_inf = best_t;
    opt.metrics = evaluate(best_t);
  }
  return opt;
}

}  // namespace gridsub::core
