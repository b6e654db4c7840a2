// Delayed-resubmission strategy (paper §6).

#include "core/delayed_resubmission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/multiple_submission.hpp"
#include "numerics/optimize2d.hpp"
#include "test_util.hpp"

namespace gridsub::core {
namespace {

model::DiscretizedLatencyModel shared_model() {
  static const auto m =
      testutil::discretize(testutil::make_heavy_model(0.05, 4000.0), 1.0);
  return m;
}

TEST(DelayedResubmission, FeasibilityTriangle) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  EXPECT_TRUE(d.feasible(300.0, 450.0));
  EXPECT_TRUE(d.feasible(300.0, 600.0));   // t_inf == 2*t0 boundary
  EXPECT_FALSE(d.feasible(300.0, 601.0));  // beyond two copies
  EXPECT_FALSE(d.feasible(300.0, 300.0));  // t_inf must exceed t0
  EXPECT_FALSE(d.feasible(0.0, 100.0));
  EXPECT_FALSE(d.feasible(3000.0, 4500.0));  // t_inf beyond horizon
}

TEST(DelayedResubmission, InfeasibleEvaluatesToInfinity) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  EXPECT_TRUE(std::isinf(d.expectation(300.0, 700.0)));
  EXPECT_TRUE(std::isinf(d.expectation(-1.0, 100.0)));
}

TEST(DelayedResubmission, DegeneratesToSingleResubmissionAtT0EqualTinf) {
  // As t0 -> t_inf the copy is submitted exactly when the original is
  // canceled: plain single resubmission.
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const MultipleSubmission s(m, 1);
  const double t_inf = 800.0;
  EXPECT_NEAR(d.expectation(t_inf - 1e-3, t_inf), s.expectation(t_inf),
              0.5);
}

TEST(DelayedResubmission, EarlierCopyNeverHurts) {
  // For fixed t_inf, adding the staggered copy earlier (smaller t0) can
  // only reduce E_J: the copy is an extra independent chance.
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double t_inf = 800.0;
  double prev = 1e300;
  for (double t0 : {799.0, 700.0, 600.0, 500.0, 400.0}) {
    const double ej = d.expectation(t0, t_inf);
    EXPECT_LE(ej, prev + 1e-6) << "t0=" << t0;
    prev = ej;
  }
}

TEST(DelayedResubmission, BeatsSingleAtItsOptimum) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const MultipleSubmission s(m, 1);
  const auto dopt = d.optimize();
  const auto sopt = s.optimize();
  EXPECT_LT(dopt.metrics.expectation, sopt.metrics.expectation);
}

TEST(DelayedResubmission, SurvivalIsAValidTailFunction) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double t0 = 400.0, t_inf = 700.0;
  EXPECT_DOUBLE_EQ(d.survival(0.0, t0, t_inf), 1.0);
  double prev = 1.0;
  for (double t = 10.0; t < 6000.0; t += 10.0) {
    const double s = d.survival(t, t0, t_inf);
    EXPECT_LE(s, prev + 1e-12);
    EXPECT_GE(s, 0.0);
    prev = s;
  }
  EXPECT_LT(d.survival(50000.0, t0, t_inf), 1e-6);
}

TEST(DelayedResubmission, ExpectationIsIntegralOfSurvival) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double t0 = 350.0, t_inf = 650.0;
  double acc = 0.0;
  const double h = 0.5;
  for (double t = 0.5 * h; t < 60000.0; t += h) {
    const double s = d.survival(t, t0, t_inf);
    acc += s * h;
    if (s < 1e-12) break;
  }
  EXPECT_NEAR(d.expectation(t0, t_inf), acc, 1.0);
}

TEST(DelayedResubmission, SecondMomentMatchesSurvivalIntegral) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double t0 = 350.0, t_inf = 650.0;
  double acc = 0.0;
  const double h = 0.5;
  for (double t = 0.5 * h; t < 80000.0; t += h) {
    const double s = d.survival(t, t0, t_inf);
    acc += 2.0 * t * s * h;
    if (s < 1e-13 && t > 5000.0) break;
  }
  EXPECT_NEAR(d.second_moment(t0, t_inf), acc,
              0.005 * d.second_moment(t0, t_inf));
}

TEST(DelayedResubmission, PaperEq5AgreesWhenOverlapWindowIsEmptyOfMass) {
  // When F̃(t_inf - t0) == 0 the overlap terms of eq. 5 vanish and the
  // printed formula agrees with the survival form (see DESIGN.md; the
  // heavy model has a 60 s latency floor).
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double t0 = 600.0, t_inf = 650.0;  // overlap window = 50 s < floor
  ASSERT_DOUBLE_EQ(m.ftilde(t_inf - t0), 0.0);
  EXPECT_NEAR(d.expectation_paper_eq5(t0, t_inf), d.expectation(t0, t_inf),
              0.01 * d.expectation(t0, t_inf));
}

TEST(DelayedResubmission, PaperEq5DisagreesOnceOverlapHasMass) {
  // Documented deviation: with mass in the overlap window the printed
  // eq. 5 over-estimates E_J (Monte Carlo sides with the survival form;
  // see test_mc_validation.cpp).
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double t0 = 300.0, t_inf = 580.0;  // overlap window = 280 s
  ASSERT_GT(m.ftilde(t_inf - t0), 0.01);
  const double eq5 = d.expectation_paper_eq5(t0, t_inf);
  const double survival_form = d.expectation(t0, t_inf);
  EXPECT_GT(eq5, survival_form * 1.02);
}

TEST(DelayedResubmission, ParallelJobsFormulaMatchesPaperCases) {
  // n = 1, l < t_inf:         N = 2 - t0/l.
  EXPECT_NEAR(DelayedResubmission::parallel_jobs_at(432.0, 354.0, 496.0),
              2.0 - 354.0 / 432.0, 1e-12);
  // n = 1, l >= t_inf:        N = (t0 + 2(t_inf - t0) + (l - t_inf)) / l.
  EXPECT_NEAR(DelayedResubmission::parallel_jobs_at(444.0, 272.0, 435.0),
              (272.0 + 2.0 * (435.0 - 272.0) + (444.0 - 435.0)) / 444.0,
              1e-12);
  // n = 2 in I0:              N = (t0 + t_inf + 2(l - 2 t0)) / l.
  EXPECT_NEAR(DelayedResubmission::parallel_jobs_at(466.0, 224.0, 425.0),
              (224.0 + 425.0 + 2.0 * (466.0 - 448.0)) / 466.0, 1e-12);
}

TEST(DelayedResubmission, ParallelJobsBoundsAndAsymptote) {
  const double t0 = 300.0, t_inf = 500.0;
  // N(l <= t0) == 1 (only one copy ever existed).
  EXPECT_DOUBLE_EQ(DelayedResubmission::parallel_jobs_at(200.0, t0, t_inf),
                   1.0);
  // Asymptote: N -> t_inf / t0 as l grows.
  EXPECT_NEAR(DelayedResubmission::parallel_jobs_at(1e7, t0, t_inf),
              t_inf / t0, 1e-3);
  // Global bounds 1 <= N <= 2.
  for (double l : {10.0, 400.0, 650.0, 1000.0, 5000.0}) {
    const double n = DelayedResubmission::parallel_jobs_at(l, t0, t_inf);
    EXPECT_GE(n, 1.0 - 1e-12);
    EXPECT_LE(n, 2.0);
  }
}

TEST(DelayedResubmission, ExpectedSubmissionsAtLeastOne) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double subs = d.expected_submissions(400.0, 700.0);
  EXPECT_GE(subs, 1.0);
  // With a small t0, more copies are submitted on average.
  EXPECT_GT(d.expected_submissions(150.0, 290.0), subs * 0.9);
}

TEST(DelayedResubmission, OptimizeStaysFeasible) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const auto opt = d.optimize();
  EXPECT_TRUE(d.feasible(opt.t0, opt.t_inf));
  EXPECT_TRUE(std::isfinite(opt.metrics.expectation));
  EXPECT_GE(opt.n_parallel, 1.0 - 1e-9);
  EXPECT_LE(opt.n_parallel, 2.0);
}

TEST(DelayedResubmission, RatioConstrainedOptimumIsNoBetterThanGlobal) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const auto global = d.optimize();
  for (double ratio : {1.1, 1.3, 1.5, 1.8}) {
    const auto r = d.optimize_with_ratio(ratio);
    EXPECT_GE(r.metrics.expectation,
              global.metrics.expectation - 1.0)
        << "ratio=" << ratio;
    EXPECT_NEAR(r.t_inf / r.t0, ratio, 1e-6);
  }
}

TEST(DelayedResubmission, OptimizeWithRatioRejectsBadRatio) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  EXPECT_THROW((void)d.optimize_with_ratio(1.0), std::invalid_argument);
  EXPECT_THROW((void)d.optimize_with_ratio(2.5), std::invalid_argument);
}

TEST(DelayedResubmission, ExpectedParallelJobsBetween1AndRatio) {
  const auto m = shared_model();
  const DelayedResubmission d(m);
  const double t0 = 300.0, t_inf = 540.0;
  const double n = d.expected_parallel_jobs(t0, t_inf);
  EXPECT_GE(n, 1.0 - 1e-9);
  EXPECT_LE(n, t_inf / t0 + 1e-9);
}

/// ∫_a^b f by the trapezoid rule on cells no wider than `h`.
template <class F>
double fine_trapezoid(F&& f, double a, double b, double h) {
  if (!(b > a)) return 0.0;
  const auto n = static_cast<int>(std::ceil((b - a) / h));
  const double w = (b - a) / n;
  double acc = 0.5 * (f(a) + f(b));
  for (int i = 1; i < n; ++i) acc += f(a + i * w);
  return acc * w;
}

TEST(DelayedResubmission, RowReadsEqualOneShotCallsAndAFineReference) {
  // Each case's horizon makes t∞ = horizon feasible for its last t0.
  struct Case {
    double step;
    double horizon;
    std::vector<double> t0s;
  };
  const Case cases[] = {{20.0, 800.0, {80.0, 381.0, 402.5}},
                        {1.0, 600.0, {150.0, 300.5}}};
  for (const Case& c : cases) {
    const auto m = testutil::discretize(
        testutil::make_heavy_model(0.05, c.horizon), c.step);
    const DelayedResubmission d(m);
    ASSERT_TRUE(d.feasible(c.t0s.back(), c.horizon));
    DelayedResubmission::Row row(d);
    // Independent reference: the survival-form E_J and E[W] with every
    // integral a trapezoid on step/64 cells of the public survival_at().
    const double h = c.step / 64.0;
    const auto s = [&](double u) { return m.survival_at(u); };
    for (const double t0 : c.t0s) {
      const double tinf_hi = std::min(2.0 * t0, c.horizon);
      // Lengths below one step, exactly on nodes, between nodes, and the
      // horizon when it is feasible.
      std::vector<double> t_infs = {t0 + 0.25 * c.step, t0 + c.step,
                                    t0 + 3.0 * c.step};
      for (double t_inf = t0 + 1.0; t_inf <= tinf_hi; t_inf += 7.25) {
        t_infs.push_back(t_inf);
      }
      if (d.feasible(t0, c.horizon)) t_infs.push_back(c.horizon);
      // Read ascending (the sweep extends as it goes) and then descending
      // on a fresh row (one extension, then prefix reads only).
      for (const bool descending : {false, true}) {
        std::sort(t_infs.begin(), t_infs.end());
        if (descending) std::reverse(t_infs.begin(), t_infs.end());
        row.reset(t0);
        ASSERT_EQ(row.t0(), t0);
        for (const double t_inf : t_infs) {
          ASSERT_TRUE(d.feasible(t0, t_inf)) << t0 << " " << t_inf;
          const double ej = row.expectation(t_inf);
          const double w = row.expected_job_seconds(t_inf);
          EXPECT_EQ(ej, d.expectation(t0, t_inf))
              << "step " << c.step << " t0 " << t0 << " t_inf " << t_inf;
          EXPECT_EQ(w, d.expected_job_seconds(t0, t_inf))
              << "step " << c.step << " t0 " << t0 << " t_inf " << t_inf;

          const double length = t_inf - t0;
          const double q = s(t_inf);
          const double overlap = fine_trapezoid(
              [&](double u) { return s(u + t0) * s(u); }, 0.0, length, h);
          const double head = fine_trapezoid(s, 0.0, t0, h);
          const double tail = fine_trapezoid(s, length, t0, h);
          const double ej_ref = head + (overlap + q * tail) / (1.0 - q);
          const double w_ref = ej_ref + overlap / (1.0 - q);
          // Both sides integrate the same piecewise-linear F̃ and differ by
          // the node quadrature's O(step²) error only: relative 1e-3 at a
          // 20 s step, 1e-5 at 1 s (worst seen over these t0 on a 0.25 s
          // t∞ lattice: 4.3e-4 and 1.7e-6).
          const double bound = c.step >= 20.0 ? 1e-3 : 1e-5;
          EXPECT_NEAR(ej, ej_ref, bound * ej_ref)
              << "step " << c.step << " t0 " << t0 << " t_inf " << t_inf;
          EXPECT_NEAR(w, w_ref, bound * w_ref)
              << "step " << c.step << " t0 " << t0 << " t_inf " << t_inf;
        }
      }
    }
  }
}

/// optimize() without its row floors: the full 96 × 40 grid of Row reads,
/// then Nelder–Mead from the best cell on one-shot evaluations.
DelayedOptimum unpruned_delayed_optimum(const DelayedResubmission& d,
                                        double t0_max) {
  const auto& m = d.latency_model();
  const double lo = 4.0 * m.step();
  const double hi = (t0_max > 0.0) ? t0_max : 0.5 * m.horizon();
  const double h_t0 = (hi - lo) / 95.0;
  const double h_ratio = (2.0 - 1.02) / 39.0;
  double best = std::numeric_limits<double>::infinity();
  double best_t0 = 0.0, best_ratio = 0.0;
  DelayedResubmission::Row row(d);
  for (std::size_t i = 0; i < 96; ++i) {
    const double t0 = lo + static_cast<double>(i) * h_t0;
    row.reset(t0);
    for (std::size_t j = 0; j < 40; ++j) {
      const double ratio = 1.02 + static_cast<double>(j) * h_ratio;
      const double v = row.expectation(ratio * t0);
      if (v < best) {
        best = v;
        best_t0 = t0;
        best_ratio = ratio;
      }
    }
  }
  if (std::isfinite(best)) {
    const auto refined = numerics::nelder_mead(
        [&d](double t0, double ratio) {
          return d.expectation(t0, ratio * t0);
        },
        {best_t0, best_ratio}, {0.5 * h_t0 + 1e-9, 0.5 * h_ratio + 1e-9},
        1e-10);
    if (refined.value <= best && std::isfinite(refined.value)) {
      best_t0 = refined.x;
      best_ratio = refined.y;
    }
  }
  DelayedOptimum opt;
  opt.t0 = best_t0;
  opt.t_inf = std::min(best_ratio * best_t0, m.horizon());
  opt.metrics = d.evaluate(opt.t0, opt.t_inf);
  opt.n_parallel = d.parallel_jobs(opt.t0, opt.t_inf);
  return opt;
}

TEST(DelayedResubmission, RowFloorsLeaveTheOptimumBitIdentical) {
  for (const auto& [label, m] : testutil::floor_net_models()) {
    const DelayedResubmission d(m);
    for (const double t0_max : {-1.0, 0.3 * m.horizon()}) {
      const DelayedOptimum want = unpruned_delayed_optimum(d, t0_max);
      const DelayedOptimum got = d.optimize(t0_max);
      const std::string where = label + ", t0_max " + std::to_string(t0_max);
      EXPECT_EQ(got.t0, want.t0) << where;
      EXPECT_EQ(got.t_inf, want.t_inf) << where;
      EXPECT_EQ(got.metrics.expectation, want.metrics.expectation) << where;
      EXPECT_EQ(got.metrics.std_deviation, want.metrics.std_deviation)
          << where;
      EXPECT_EQ(got.n_parallel, want.n_parallel) << where;
    }
  }
}

TEST(DelayedResubmission, RowFloorBoundsEveryReadOfItsRow) {
  // The floors' premise, read on a lattice of every net model: E_J, and
  // with it E[W], is at least the column floor A/(1 - S(t∞)) shrunk by
  // kFloorSlack, the column floor is at least the row floor, and N∥ at
  // l = E_J is at least 1 up to the same slack.
  for (const auto& [label, m] : testutil::floor_net_models()) {
    const DelayedResubmission d(m);
    DelayedResubmission::Row row(d);
    const double h = std::max(m.step(), m.horizon() / 160.0);
    for (double t0 = m.step() / 3.0; t0 < 0.5 * m.horizon(); t0 += h) {
      row.reset(t0);
      const double floor = row.expectation_floor() * (1.0 - kFloorSlack);
      for (double t_inf = t0 + 0.5 * m.step(); t_inf <= 2.0 * t0;
           t_inf += 0.37 * h) {
        const auto where = [&] {
          return label + " t0 " + std::to_string(t0) + " t_inf " +
                 std::to_string(t_inf);
        };
        const double column_floor = row.expectation_floor(t_inf);
        EXPECT_GE(column_floor, row.expectation_floor()) << where();
        const double column = column_floor * (1.0 - kFloorSlack);
        const double ej = row.expectation(t_inf);
        if (!std::isfinite(ej)) continue;
        EXPECT_GE(ej, floor) << where();
        EXPECT_GE(ej, column) << where();
        const double w = row.expected_job_seconds(t_inf);
        EXPECT_GE(w, ej) << where();
        EXPECT_GE(w, column) << where();
        EXPECT_GE(DelayedResubmission::parallel_jobs_at(ej, t0, t_inf),
                  1.0 - kFloorSlack)
            << where();
      }
    }
  }
}

class DelayedSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DelayedSweep, InvariantsAcrossTheFeasibleTriangle) {
  const auto [t0, ratio] = GetParam();
  const double t_inf = ratio * t0;
  const auto m = shared_model();
  const DelayedResubmission d(m);
  ASSERT_TRUE(d.feasible(t0, t_inf));
  const double ej = d.expectation(t0, t_inf);
  ASSERT_TRUE(std::isfinite(ej));
  EXPECT_GE(ej, 59.0);  // cannot beat the latency floor
  const double e2 = d.second_moment(t0, t_inf);
  EXPECT_GE(e2, ej * ej - 1e-6);
  // The delayed strategy at (t0, t_inf) is at least as good as single
  // resubmission at t_inf (the copy only adds chances).
  const MultipleSubmission s(m, 1);
  EXPECT_LE(ej, s.expectation(t_inf) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DelayedSweep,
    ::testing::Combine(::testing::Values(150.0, 300.0, 500.0, 900.0),
                       ::testing::Values(1.1, 1.4, 1.7, 2.0)));

}  // namespace
}  // namespace gridsub::core
