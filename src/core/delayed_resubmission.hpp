#pragma once

// Delayed-resubmission strategy (paper §6) — the paper's novel contribution.
//
// Job 1 is submitted at t = 0. If it has not started by t0, a copy is
// submitted *without* cancelling job 1; job 1 is canceled at t∞. The
// pattern iterates with period t0 until some copy starts. The constraint
// 0 < t0 < t∞ <= 2·t0 keeps at most two copies in flight.
//
// Implementation notes (see DESIGN.md §"A note on eq. 5"):
//
// * The primary evaluator uses the exact survival form. With
//   q = 1 - F̃(t∞), s(x) = 1 - F̃(x) and s_cap(x) = s(min(x, t∞)), the
//   survival of the total latency J on t ∈ [n·t0, (n+1)·t0), n >= 1 is
//     S(t) = q^(n-1) · s_cap(t - (n-1)·t0) · s(t - n·t0),
//   (and S(t) = s(t) on [0, t0)), giving closed geometric-series forms
//     E_J    = ∫₀^{t0} s + H / (1-q)
//     E[J²]  = 2 [ ∫₀^{t0} u·s(u) du + U/(1-q) + t0·H/(1-q)² ]
//   with Φ(u) = s_cap(u + t0)·s(u),  H = ∫₀^{t0} Φ,  U = ∫₀^{t0} u·Φ(u) du.
//   Only F̃ is needed — no density estimate.
//
// * The paper's eq. 5 (density form) is also implemented, as
//   expectation_paper_eq5(), and cross-checked against the survival form
//   and Monte Carlo in the test suite.
//
// * Overlap quadrature. With L = t∞ - t0, Φ = q·s on [L, t0], so H and U
//   reduce to prefix integrals of s plus the overlap integrals ∫₀^L Φ and
//   ∫₀^L u·Φ(u) du (the first is also E[W]'s duplicated occupancy). Both
//   are trapezoids on the model grid's nodes u_k = k·step, k = 0…m with
//   m = ⌊L/step⌋, plus one partial cell [m·step, L]. At a node,
//   s(u_k) = 1 - F̃_k and s(u_k + t0) is the model's lerp read by index:
//   with t0/step = j + φ it interpolates F̃_{k+j} and F̃_{k+j+1} at the
//   fixed fraction φ. The end point is Φ(L) = q·survival_at(L). Cells are
//   added in node order with Kahan compensation. The nodes depend on t0
//   only, never on L, so one forward sweep per t0 (a Row) yields every t∞
//   column as a prefix read plus the partial cell, and each column equals
//   the one-shot expectation() / expected_job_seconds() bit for bit.
//
// * N∥: the paper's case-by-case §6.1 formulas collapse to
//     N∥(l) = ( Σ_{k=0}^{⌊l/t0⌋} min(l - k·t0, t∞) ) / l,
//   which reproduces every printed case and the t∞/t0 asymptote. The
//   paper evaluates N∥ at l = E_J (parallel_jobs()); the distribution-
//   averaged E[N∥(J)] is provided as expected_parallel_jobs().
//
// * Floors. Let A = ∫₀^{t0} s, q = S(t∞) and L = t∞ - t0. On [0, L],
//   u + t0 <= t∞, so Φ(u) = S(u + t0)·S(u) >= q·S(u) and H >= q·A, which
//   gives E_J = A + H/(1-q) >= A/(1-q): the column floor
//   Row::expectation_floor(t∞). S never increases, so the row floor
//   Row::expectation_floor() = A/(1 - S(t_max)), with t_max the row's
//   largest feasible t∞, bounds every column of the row. The computed
//   quantities obey the same inequalities node by node: the lerp of F̃ is
//   monotone, and the partial cell's end q·S(L) is at least q·s(u_{m+1}),
//   the node that ∫₀^L s interpolates towards. N∥ >= 1 under both cost
//   accountings, so Δcost >= CostModel::delta_cost(1, floor). The grid
//   scan of optimize() and both Δcost scans of CostModel skip a row, and
//   then a column, whose floor, shrunk by kFloorSlack, is not below their
//   running best. Ties are safe: the scans replace the best only on a
//   strict <, so a skipped point could at most have equalled it, and every
//   optimum is the full scan's bit for bit.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "model/discretized.hpp"
#include "numerics/kahan.hpp"

namespace gridsub::core {

class DelayedResubmission {
 public:
  /// The overlap integral of one t0, swept once and read at any t∞ (see
  /// "Overlap quadrature" above). The sweep extends lazily to the longest
  /// L = t∞ - t0 read so far; reset() starts the next t0 and keeps the
  /// buffer. A Row is working storage for one caller: optimizers keep one on
  /// the stack, so concurrent calls on a shared const DelayedResubmission
  /// share nothing mutable.
  class Row {
   public:
    /// Keeps a reference to `d` (must outlive this row).
    explicit Row(const DelayedResubmission& d) : d_(d) {}

    /// Starts the row of `t0` > 0, discarding the previous sweep; the new
    /// sweep begins at the first feasible read.
    void reset(double t0);
    [[nodiscard]] double t0() const { return t0_; }
    /// A/(1 - S(t_max)) with A = ∫₀^{t0} s and t_max the row's largest
    /// feasible t∞ (2·t0 plus the feasibility check's tolerance, at most
    /// the horizon): no expectation(t∞) of the row is below it, up to the
    /// roundings kFloorSlack covers (see "Floors" above).
    [[nodiscard]] double expectation_floor() const { return floor_; }
    /// A/(1 - S(t∞)): the same bound for the one column t∞, and at least
    /// the row floor; +inf when (t0(), t∞) is infeasible.
    [[nodiscard]] double expectation_floor(double t_inf);

    /// Equals d.expectation(t0(), t_inf) bit for bit.
    [[nodiscard]] double expectation(double t_inf);
    /// Equals d.expected_job_seconds(t0(), t_inf) bit for bit.
    [[nodiscard]] double expected_job_seconds(double t_inf);

   private:
    /// ∫₀^length Φ given q = S(t0 + length), extending the sweep to node
    /// ⌊length/step⌋ first.
    [[nodiscard]] double overlap(double length, double q);
    /// S(t∞) of a feasible column and 1 of an infeasible one, so that
    /// every read of an infeasible column is +inf. The last column's value
    /// is kept: the column floor and the reads after it read the model
    /// once.
    [[nodiscard]] double survival(double t_inf);

    struct Node {
      double phi;     ///< Φ(u_k)
      double prefix;  ///< ∫₀^{u_k} Φ
    };

    const DelayedResubmission& d_;
    double t0_ = 0.0;
    double area_ = 0.0;        ///< A = ∫₀^{t0} s
    double floor_ = 0.0;       ///< A/(1 - S(t_max))
    double column_ = std::numeric_limits<double>::quiet_NaN();  ///< kept t∞
    double column_q_ = 1.0;    ///< survival(column_)
    std::size_t shift_ = 0;    ///< j = ⌊t0/step⌋
    double shift_frac_ = 0.0;  ///< φ = t0/step - j
    numerics::KahanAccumulator acc_;
    std::vector<Node> nodes_;  ///< u_0 … u_k swept so far
  };

  /// Keeps a reference to `m` (must outlive this object).
  explicit DelayedResubmission(const model::DiscretizedLatencyModel& m);

  /// Feasibility: 0 < t0 < t∞ <= 2·t0 and t∞ <= horizon.
  [[nodiscard]] bool feasible(double t0, double t_inf) const;

  /// E_J(t0, t∞) via the survival form (+inf if infeasible or q == 1).
  [[nodiscard]] double expectation(double t0, double t_inf) const;

  /// E[J²](t0, t∞).
  [[nodiscard]] double second_moment(double t0, double t_inf) const;

  [[nodiscard]] double std_deviation(double t0, double t_inf) const;

  [[nodiscard]] StrategyMetrics evaluate(double t0, double t_inf) const;

  /// The paper's eq. 5 evaluated by numerical quadrature with the model's
  /// density estimate. Kept for fidelity & cross-validation.
  [[nodiscard]] double expectation_paper_eq5(double t0, double t_inf) const;

  /// Survival P(J > t) of the total latency.
  [[nodiscard]] double survival(double t, double t0, double t_inf) const;

  /// N∥ evaluated at latency l (paper §6.1); N∥(l<=0) := 1.
  [[nodiscard]] static double parallel_jobs_at(double l, double t0,
                                               double t_inf);

  /// Paper's measure: N∥ at l = E_J(t0, t∞).
  [[nodiscard]] double parallel_jobs(double t0, double t_inf) const;

  /// Distribution-averaged E[N∥(J)] (extension; integrates over S).
  [[nodiscard]] double expected_parallel_jobs(double t0, double t_inf) const;

  /// Expected total job-seconds consumed per task. From the survival form,
  ///   E[W] = E_J + (1/(1-q)) · ∫₀^{t∞-t0} s(u+t0)·s(u) du,
  /// i.e. the expected latency plus the expected duplicated occupancy.
  /// This is the quantity an administrator bills; N∥(E_J)·E_J (the paper's
  /// accounting) underestimates it by Jensen's inequality.
  [[nodiscard]] double expected_job_seconds(double t0, double t_inf) const;

  /// Fleet-level average parallelism E[W]/E[J] — the ratio-of-sums load
  /// measure matched by mc::McResult::aggregate_parallel.
  [[nodiscard]] double fleet_parallel_jobs(double t0, double t_inf) const;

  /// Expected number of copies submitted until one starts:
  /// E[⌊J/t0⌋ + 1] = Σ_{n>=0} P(J > n·t0).
  [[nodiscard]] double expected_submissions(double t0, double t_inf) const;

  /// Global minimization of E_J over the feasible triangle, parameterized
  /// as (t0, ratio = t∞/t0) with ratio in (1, 2]: a 96 × 40 grid scan, one
  /// Row per t0, then Nelder–Mead from the best cell. The scan skips a row,
  /// and then a column, whose floor is not below the best cell so far (see
  /// "Floors"), which leaves the best cell and the optimum unchanged. `t0_max` < 0 selects
  /// horizon/2.
  [[nodiscard]] DelayedOptimum optimize(double t0_max = -1.0) const;

  /// Minimization with the ratio t∞/t0 imposed (paper §6.2 / Table 3).
  [[nodiscard]] DelayedOptimum optimize_with_ratio(double ratio,
                                                   double t0_max = -1.0) const;

  [[nodiscard]] const model::DiscretizedLatencyModel& latency_model() const {
    return model_;
  }

 private:
  /// Interpolated prefix integrals ∫₀^t s and ∫₀^t u·s(u) du.
  [[nodiscard]] double integral_s(double t) const;
  [[nodiscard]] double integral_us(double t) const;
  /// One-shot sweep of a Row's nodes: ∫₀^L Φ given q = S(t0 + L), and
  /// ∫₀^L u·Φ(u) du stored in `*weighted` when it is non-null.
  [[nodiscard]] double overlap(double t0, double length, double q,
                               double* weighted = nullptr) const;
  /// E_J and E[W] at a feasible (t0, t∞) from A = ∫₀^{t0} s, q = S(t∞)
  /// and `overlap(L, q)` = ∫₀^L Φ; +inf when q == 1. The one-shot calls
  /// and the Row reads both go through these, so they share every
  /// operation but the sources of A, q and the overlap.
  template <class Overlap>
  [[nodiscard]] double expectation_with(double t0, double t_inf, double area,
                                        double q, Overlap&& overlap) const;
  template <class Overlap>
  [[nodiscard]] double job_seconds_with(double t0, double t_inf, double area,
                                        double q, Overlap&& overlap) const;
  [[nodiscard]] DelayedOptimum pack_optimum(double t0, double t_inf) const;

  const model::DiscretizedLatencyModel& model_;
  /// The model's tabulated F̃ grid, captured once so the overlap sweeps
  /// read it by index without virtual ftilde() dispatch.
  std::span<const double> fgrid_;
  std::vector<double> prefix_s_;   ///< ∫ (1 - F̃)
  std::vector<double> prefix_us_;  ///< ∫ u (1 - F̃(u)) du
};

}  // namespace gridsub::core
