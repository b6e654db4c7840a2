#include "core/delayed_resubmission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numerics/integration.hpp"
#include "numerics/kahan.hpp"
#include "numerics/optimize1d.hpp"
#include "numerics/optimize2d.hpp"

namespace gridsub::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Tolerance on the t∞ <= 2·t0 boundary (the formulas remain valid at
// equality; allow roundoff past it).
constexpr double kBoundaryEps = 1e-9;

// Overlap-quadrature helpers shared by the one-shot sweep and Row, so the
// two run identical arithmetic (see "Overlap quadrature" in the header).

// t0 = (index + frac)·step: s(u_k + t0) lerps F̃ at node k + index.
struct NodeShift {
  std::size_t index = 0;
  double frac = 0.0;
};

NodeShift shift_of(double t0, double step) {
  const double x = t0 / step;
  const auto index = static_cast<std::size_t>(x);
  return {index, x - static_cast<double>(index)};
}

// m = ⌊length/step⌋: the last node at or below `length`.
std::size_t node_below(double length, double step) {
  return static_cast<std::size_t>(length / step);
}

double node_u(std::size_t k, double step) {
  return static_cast<double>(k) * step;
}

// Φ(u_k) = s(u_k + t0)·s(u_k), both read from the F̃ grid by index; past
// the last node s is clamped like DiscretizedLatencyModel::ftilde.
double phi_at_node(std::span<const double> fg, NodeShift shift,
                   std::size_t k) {
  const std::size_t last = fg.size() - 1;
  const double s_u = 1.0 - fg[std::min(k, last)];
  const std::size_t i = k + shift.index;
  const double s_shifted =
      i >= last ? 1.0 - fg[last]
                : 1.0 - (fg[i] + shift.frac * (fg[i + 1] - fg[i]));
  return s_shifted * s_u;
}

double cell(double width, double left, double right) {
  return 0.5 * width * (left + right);
}
}  // namespace

DelayedResubmission::DelayedResubmission(
    const model::DiscretizedLatencyModel& m)
    : model_(m), fgrid_(m.ftilde_grid()) {
  const double step = model_.step();
  std::vector<double> s(fgrid_.size());
  std::vector<double> us(fgrid_.size());
  for (std::size_t i = 0; i < fgrid_.size(); ++i) {
    s[i] = 1.0 - fgrid_[i];
    us[i] = model_.t_at(i) * s[i];
  }
  numerics::cumulative_trapezoid(s, step, prefix_s_);
  numerics::cumulative_trapezoid(us, step, prefix_us_);
}

bool DelayedResubmission::feasible(double t0, double t_inf) const {
  return t0 > 0.0 && t_inf > t0 &&
         t_inf <= 2.0 * t0 * (1.0 + kBoundaryEps) &&
         t_inf <= model_.horizon();
}

double DelayedResubmission::integral_s(double t) const {
  return numerics::interp_uniform(prefix_s_, model_.step(), t);
}

double DelayedResubmission::integral_us(double t) const {
  return numerics::interp_uniform(prefix_us_, model_.step(), t);
}

double DelayedResubmission::overlap(double t0, double length, double q,
                                    double* weighted) const {
  const double step = model_.step();
  const NodeShift shift = shift_of(t0, step);
  const auto m = node_below(length, step);
  numerics::KahanAccumulator plain, moment;
  double phi = phi_at_node(fgrid_, shift, 0);
  for (std::size_t k = 1; k <= m; ++k) {
    const double next = phi_at_node(fgrid_, shift, k);
    plain.add(cell(step, phi, next));
    if (weighted) {
      moment.add(
          cell(step, node_u(k - 1, step) * phi, node_u(k, step) * next));
    }
    phi = next;
  }
  const double u_m = node_u(m, step);
  const double phi_end = q * model_.survival_at(length);
  if (weighted) {
    *weighted =
        moment.value() + cell(length - u_m, u_m * phi, length * phi_end);
  }
  return plain.value() + cell(length - u_m, phi, phi_end);
}

template <class Overlap>
double DelayedResubmission::expectation_with(double t0, double t_inf,
                                             double area, double q,
                                             Overlap&& overlap) const {
  const double p = 1.0 - q;
  if (!(p > 0.0)) return kInf;
  const double length = t_inf - t0;
  const double h_total =
      overlap(length, q) + q * (area - integral_s(length));
  return area + h_total / p;
}

template <class Overlap>
double DelayedResubmission::job_seconds_with(double t0, double t_inf,
                                             double area, double q,
                                             Overlap&& overlap) const {
  const double ej = expectation_with(t0, t_inf, area, q, overlap);
  if (!std::isfinite(ej)) return kInf;
  return ej + overlap(t_inf - t0, q) / (1.0 - q);
}

double DelayedResubmission::expectation(double t0, double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  return expectation_with(t0, t_inf, integral_s(t0),
                          model_.survival_at(t_inf),
                          [&](double length, double q) {
                            return overlap(t0, length, q);
                          });
}

double DelayedResubmission::second_moment(double t0, double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double q = model_.survival_at(t_inf);
  const double p = 1.0 - q;
  if (!(p > 0.0)) return kInf;
  const double length = t_inf - t0;
  double weighted = 0.0;
  const double plain = overlap(t0, length, q, &weighted);
  const double h_total = plain + q * (integral_s(t0) - integral_s(length));
  const double u_total =
      weighted + q * (integral_us(t0) - integral_us(length));
  return 2.0 * (integral_us(t0) + u_total / p + t0 * h_total / (p * p));
}

void DelayedResubmission::Row::reset(double t0) {
  t0_ = t0;
  area_ = d_.integral_s(t0);
  const double t_max =
      std::min(2.0 * t0 * (1.0 + kBoundaryEps), d_.model_.horizon());
  floor_ = area_ / (1.0 - d_.model_.survival_at(t_max));
  column_ = std::numeric_limits<double>::quiet_NaN();
  nodes_.clear();
}

double DelayedResubmission::Row::survival(double t_inf) {
  if (t_inf != column_) {
    column_ = t_inf;
    column_q_ = d_.feasible(t0_, t_inf) ? d_.model_.survival_at(t_inf) : 1.0;
  }
  return column_q_;
}

double DelayedResubmission::Row::expectation_floor(double t_inf) {
  return area_ / (1.0 - survival(t_inf));
}

double DelayedResubmission::Row::overlap(double length, double q) {
  const double step = d_.model_.step();
  if (nodes_.empty()) {
    // First read since reset(). Reads come only after the feasibility
    // check, so 0 < t0 < horizon here.
    const NodeShift shift = shift_of(t0_, step);
    shift_ = shift.index;
    shift_frac_ = shift.frac;
    acc_.reset();
    nodes_.push_back({phi_at_node(d_.fgrid_, shift, 0), acc_.value()});
  }
  const auto m = node_below(length, step);
  while (nodes_.size() <= m) {
    const double next =
        phi_at_node(d_.fgrid_, {shift_, shift_frac_}, nodes_.size());
    acc_.add(cell(step, nodes_.back().phi, next));
    nodes_.push_back({next, acc_.value()});
  }
  const Node& node = nodes_[m];
  return node.prefix + cell(length - node_u(m, step), node.phi,
                            q * d_.model_.survival_at(length));
}

double DelayedResubmission::Row::expectation(double t_inf) {
  return d_.expectation_with(t0_, t_inf, area_, survival(t_inf),
                             [this](double length, double q) {
                               return overlap(length, q);
                             });
}

double DelayedResubmission::Row::expected_job_seconds(double t_inf) {
  return d_.job_seconds_with(t0_, t_inf, area_, survival(t_inf),
                             [this](double length, double q) {
                               return overlap(length, q);
                             });
}

double DelayedResubmission::std_deviation(double t0, double t_inf) const {
  const double ej = expectation(t0, t_inf);
  if (!std::isfinite(ej)) return kInf;
  const double var = second_moment(t0, t_inf) - ej * ej;
  return std::sqrt(std::max(var, 0.0));
}

StrategyMetrics DelayedResubmission::evaluate(double t0,
                                              double t_inf) const {
  StrategyMetrics m;
  m.expectation = expectation(t0, t_inf);
  m.std_deviation = std_deviation(t0, t_inf);
  return m;
}

double DelayedResubmission::expectation_paper_eq5(double t0,
                                                  double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double f_inf = model_.ftilde(t_inf);
  if (!(f_inf > 0.0)) return kInf;
  const double length = t_inf - t0;
  const double step = model_.step();
  const auto quad = [&](double lo, double hi, auto&& fn) {
    if (!(hi > lo)) return 0.0;
    const auto n = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil((hi - lo) / step)) * 2);
    const double h = (hi - lo) / static_cast<double>(n);
    numerics::KahanAccumulator acc(0.5 * (fn(lo) + fn(hi)));
    for (std::size_t i = 1; i < n; ++i) {
      acc.add(fn(lo + static_cast<double>(i) * h));
    }
    return acc.value() * h;
  };
  const auto f = [&](double t) { return model_.density(t); };
  const double a_int = quad(0.0, t_inf, [&](double u) { return u * f(u); });
  const double b_int = quad(0.0, length, [&](double u) { return u * f(u); });
  const double c_int =
      quad(0.0, length, [&](double u) { return f(u + t0) * f(u); });
  const double d_int =
      quad(0.0, length, [&](double u) { return u * f(u + t0) * f(u); });
  const double f0 = model_.ftilde(t0);
  const double fl = model_.ftilde(length);
  return a_int / f_inf + f0 * b_int / f_inf + t0 / f_inf +
         t0 * fl / f_inf + t0 * f0 * fl / (f_inf * f_inf) - t0 + b_int -
         t0 * c_int / (f_inf * f_inf) - d_int / f_inf;
}

double DelayedResubmission::survival(double t, double t0,
                                     double t_inf) const {
  if (t <= 0.0) return 1.0;
  const auto n = static_cast<std::size_t>(t / t0);
  if (n == 0) return model_.survival_at(t);
  const double q = model_.survival_at(t_inf);
  const double a = t - static_cast<double>(n - 1) * t0;  // in [t0, 2 t0)
  const double f1 = model_.survival_at(std::min(a, t_inf));
  const double f2 = model_.survival_at(t - static_cast<double>(n) * t0);
  if (n == 1) return f1 * f2;
  return std::pow(q, static_cast<double>(n - 1)) * f1 * f2;
}

double DelayedResubmission::parallel_jobs_at(double l, double t0,
                                             double t_inf) {
  if (!(t0 > 0.0)) throw std::invalid_argument("parallel_jobs_at: t0 <= 0");
  if (!(l > 0.0)) return 1.0;
  const auto n = static_cast<std::size_t>(l / t0);
  numerics::KahanAccumulator occupancy;
  for (std::size_t k = 0; k <= n; ++k) {
    occupancy.add(std::min(l - static_cast<double>(k) * t0, t_inf));
  }
  return occupancy.value() / l;
}

double DelayedResubmission::parallel_jobs(double t0, double t_inf) const {
  const double ej = expectation(t0, t_inf);
  if (!std::isfinite(ej)) return kInf;
  return parallel_jobs_at(ej, t0, t_inf);
}

double DelayedResubmission::expected_parallel_jobs(double t0,
                                                   double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double q = model_.survival_at(t_inf);
  if (!(q < 1.0)) return kInf;
  // E[N∥(J)] = ∫ N∥(l) dF_J(l); integrate on the model grid until the
  // survival mass is exhausted.
  const double step = model_.step();
  numerics::KahanAccumulator acc;
  double s_prev = 1.0;
  double l = 0.0;
  constexpr double kTailCut = 1e-12;
  const double l_max = 1000.0 * t0;  // hard cap; geometric decay ends first
  while (s_prev > kTailCut && l < l_max) {
    const double l_next = l + step;
    const double s_next = survival(l_next, t0, t_inf);
    const double mass = s_prev - s_next;
    if (mass > 0.0) {
      acc.add(mass * parallel_jobs_at(0.5 * (l + l_next), t0, t_inf));
    }
    s_prev = s_next;
    l = l_next;
  }
  // Remaining tail mass behaves like the asymptote N∥ -> t∞/t0.
  acc.add(s_prev * (t_inf / t0));
  return acc.value();
}

double DelayedResubmission::expected_job_seconds(double t0,
                                                 double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  return job_seconds_with(t0, t_inf, integral_s(t0),
                          model_.survival_at(t_inf),
                          [&](double length, double q) {
                            return overlap(t0, length, q);
                          });
}

double DelayedResubmission::fleet_parallel_jobs(double t0,
                                                double t_inf) const {
  const double ej = expectation(t0, t_inf);
  if (!std::isfinite(ej) || !(ej > 0.0)) return kInf;
  return expected_job_seconds(t0, t_inf) / ej;
}

double DelayedResubmission::expected_submissions(double t0,
                                                 double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double q = model_.survival_at(t_inf);
  if (!(q < 1.0)) return kInf;
  numerics::KahanAccumulator acc(1.0);
  double n = 1.0;
  for (;;) {
    const double s = survival(n * t0, t0, t_inf);
    if (s < 1e-14 || n > 1e7) break;
    acc.add(s);
    n += 1.0;
  }
  return acc.value();
}

DelayedOptimum DelayedResubmission::pack_optimum(double t0,
                                                 double t_inf) const {
  DelayedOptimum opt;
  opt.t0 = t0;
  opt.t_inf = t_inf;
  opt.metrics = evaluate(t0, t_inf);
  opt.n_parallel = parallel_jobs(t0, t_inf);
  return opt;
}

DelayedOptimum DelayedResubmission::optimize(double t0_max) const {
  const double step = model_.step();
  const double lo = 4.0 * step;
  const double hi =
      (t0_max > 0.0) ? t0_max : 0.5 * model_.horizon();
  if (!(hi > lo)) {
    throw std::invalid_argument("DelayedResubmission::optimize: bad bounds");
  }
  // Parameterize by (t0, ratio) so the feasible region is a rectangle.
  // Grid scan first, t0-major: every ratio column of a t0 reads one Row.
  constexpr std::size_t kT0Points = 96;
  constexpr std::size_t kRatioPoints = 40;
  constexpr double kRatioLo = 1.02;
  constexpr double kRatioHi = 2.0;
  const double h_t0 = (hi - lo) / static_cast<double>(kT0Points - 1);
  const double h_ratio =
      (kRatioHi - kRatioLo) / static_cast<double>(kRatioPoints - 1);
  double best = kInf, best_t0 = 0.0, best_ratio = 0.0;
  // A row or column whose floor is not below `best` holds no cell that
  // could replace it (see "Floors" in the header).
  const auto cannot_win = [&best](double floor) {
    return floor * (1.0 - kFloorSlack) >= best;
  };
  Row row(*this);
  for (std::size_t i = 0; i < kT0Points; ++i) {
    const double t0 = lo + static_cast<double>(i) * h_t0;
    row.reset(t0);
    if (cannot_win(row.expectation_floor())) continue;
    for (std::size_t j = 0; j < kRatioPoints; ++j) {
      const double ratio = kRatioLo + static_cast<double>(j) * h_ratio;
      const double t_inf = ratio * t0;
      if (cannot_win(row.expectation_floor(t_inf))) continue;
      const double v = row.expectation(t_inf);
      if (v < best) {
        best = v;
        best_t0 = t0;
        best_ratio = ratio;
      }
    }
  }
  // Nelder–Mead from the best cell, on one-shot evaluations.
  if (std::isfinite(best)) {
    const auto refined = numerics::nelder_mead(
        [this](double t0, double ratio) {
          return expectation(t0, ratio * t0);
        },
        {best_t0, best_ratio}, {0.5 * h_t0 + 1e-9, 0.5 * h_ratio + 1e-9},
        1e-10);
    if (refined.value <= best && std::isfinite(refined.value)) {
      best_t0 = refined.x;
      best_ratio = refined.y;
    }
  }
  return pack_optimum(best_t0,
                      std::min(best_ratio * best_t0, model_.horizon()));
}

DelayedOptimum DelayedResubmission::optimize_with_ratio(
    double ratio, double t0_max) const {
  if (!(ratio > 1.0) || !(ratio <= 2.0 + kBoundaryEps)) {
    throw std::invalid_argument(
        "optimize_with_ratio: ratio must be in (1, 2]");
  }
  const double step = model_.step();
  const double lo = 4.0 * step;
  const double hi = std::min((t0_max > 0.0) ? t0_max : 0.5 * model_.horizon(),
                             model_.horizon() / ratio);
  if (!(hi > lo)) {
    throw std::invalid_argument("optimize_with_ratio: bad bounds");
  }
  const auto res = numerics::scan_then_refine(
      [this, ratio](double t0) { return expectation(t0, ratio * t0); }, lo,
      hi, 384, 1e-6);
  return pack_optimum(res.x, ratio * res.x);
}

}  // namespace gridsub::core
