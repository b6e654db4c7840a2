// Multiple-submission strategy (paper §5, eqs. 3-4).

#include "core/multiple_submission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "numerics/optimize1d.hpp"
#include "test_util.hpp"

namespace gridsub::core {
namespace {

model::DiscretizedLatencyModel shared_model() {
  static const auto m =
      testutil::discretize(testutil::make_heavy_model(0.05, 4000.0), 1.0);
  return m;
}

TEST(MultipleSubmission, ExpectationDecreasesWithB) {
  // The paper's Table 2 headline: at any fixed timeout, more copies means
  // smaller expected latency.
  const auto m = shared_model();
  const double t_inf = 800.0;
  double prev = 1e300;
  for (int b = 1; b <= 10; ++b) {
    const MultipleSubmission multi(m, b);
    const double ej = multi.expectation(t_inf);
    EXPECT_LT(ej, prev) << "b=" << b;
    prev = ej;
  }
}

TEST(MultipleSubmission, OptimalExpectationDecreasesWithB) {
  const auto m = shared_model();
  double prev = 1e300;
  for (int b = 1; b <= 10; ++b) {
    const auto opt = MultipleSubmission(m, b).optimize();
    EXPECT_LT(opt.metrics.expectation, prev) << "b=" << b;
    prev = opt.metrics.expectation;
  }
}

TEST(MultipleSubmission, MarginalGainOfExtraCopyShrinks) {
  // Paper Table 2, third column group: Delta E_J (b)/(b-1) decays.
  const auto m = shared_model();
  double e1 = MultipleSubmission(m, 1).optimize().metrics.expectation;
  double e2 = MultipleSubmission(m, 2).optimize().metrics.expectation;
  double e3 = MultipleSubmission(m, 3).optimize().metrics.expectation;
  double e6 = MultipleSubmission(m, 6).optimize().metrics.expectation;
  double e7 = MultipleSubmission(m, 7).optimize().metrics.expectation;
  const double gain_2 = (e1 - e2) / e1;
  const double gain_3 = (e2 - e3) / e2;
  const double gain_7 = (e6 - e7) / e6;
  EXPECT_GT(gain_2, gain_3);
  EXPECT_GT(gain_3, gain_7);
}

TEST(MultipleSubmission, SigmaDecreasesWithBAtOptimum) {
  // Paper: "the standard deviation sigma_J is also decreasing,
  // concentrating the values of J around E_J".
  const auto m = shared_model();
  const double s1 =
      MultipleSubmission(m, 1).optimize().metrics.std_deviation;
  const double s5 =
      MultipleSubmission(m, 5).optimize().metrics.std_deviation;
  const double s10 =
      MultipleSubmission(m, 10).optimize().metrics.std_deviation;
  EXPECT_GT(s1, s5);
  EXPECT_GT(s5, s10);
}

TEST(MultipleSubmission, CollectionCdfSubstitutionIsExact) {
  // E_J for b copies on F̃ equals E_J for b = 1 on 1-(1-F̃)^b: verified by
  // constructing the collection model explicitly.
  const auto m = shared_model();
  const int b = 4;
  const MultipleSubmission multi(m, b);

  // Wrap the collection CDF as a latency model and discretize it.
  class CollectionModel final : public model::LatencyModel {
   public:
    CollectionModel(const model::DiscretizedLatencyModel& base, int b)
        : base_(base), b_(b) {}
    double ftilde(double t) const override {
      return 1.0 - std::pow(1.0 - base_.ftilde(t), b_);
    }
    double density(double t) const override {
      return b_ * std::pow(1.0 - base_.ftilde(t), b_ - 1) *
             base_.density(t);
    }
    double outlier_ratio() const override {
      return 1.0 - ftilde(base_.horizon());
    }
    double horizon() const override { return base_.horizon(); }
    double sample(stats::Rng& rng) const override {
      double best = model::kNeverStarts;
      for (int i = 0; i < b_; ++i) best = std::min(best, base_.sample(rng));
      return best;
    }
    std::string name() const override { return "collection"; }

   private:
    const model::DiscretizedLatencyModel& base_;
    int b_;
  };

  const CollectionModel collection(m, b);
  const auto collection_disc = testutil::discretize(collection, 1.0);
  const MultipleSubmission as_single(collection_disc, 1);
  for (double t : {300.0, 800.0, 2000.0}) {
    EXPECT_NEAR(multi.expectation(t), as_single.expectation(t),
                0.002 * multi.expectation(t));
  }
}

TEST(MultipleSubmission, ExpectedSubmissionsIsBOverSuccess) {
  const auto m = shared_model();
  const MultipleSubmission multi(m, 3);
  const double t_inf = 500.0;
  const double q = std::pow(1.0 - m.ftilde(t_inf), 3.0);
  EXPECT_NEAR(multi.expected_submissions(t_inf), 3.0 / (1.0 - q), 1e-9);
}

TEST(MultipleSubmission, RejectsInvalidB) {
  const auto m = shared_model();
  EXPECT_THROW(MultipleSubmission(m, 0), std::invalid_argument);
  EXPECT_THROW(MultipleSubmission(m, -2), std::invalid_argument);
}

TEST(MultipleSubmission, OptimizeRespectsBounds) {
  const auto m = shared_model();
  const MultipleSubmission multi(m, 2);
  const auto opt = multi.optimize(300.0, 1200.0);
  EXPECT_GE(opt.t_inf, 300.0 - 1e-9);
  EXPECT_LE(opt.t_inf, 1200.0 + 1e-9);
  EXPECT_THROW((void)multi.optimize(500.0, 100.0), std::invalid_argument);
}

/// optimize() without its prefix floor: every node of [t_min, t_max],
/// then Brent in the two cells around the best node.
TimeoutOptimum unpruned_multiple_optimum(const MultipleSubmission& multi,
                                         double t_min, double t_max) {
  const auto& m = multi.latency_model();
  const double step = m.step();
  const double lo = (t_min > 0.0) ? t_min : step;
  const double hi =
      (t_max > 0.0) ? std::min(t_max, m.horizon()) : m.horizon();
  double best_t = lo;
  double best_v = multi.expectation(lo);
  const auto i_lo = static_cast<std::size_t>(std::ceil(lo / step));
  const auto i_hi = static_cast<std::size_t>(std::min(
      std::floor(hi / step), static_cast<double>(m.grid_size() - 1)));
  for (std::size_t i = i_lo; i <= i_hi; ++i) {
    const double v = multi.expectation(m.t_at(i));
    if (v < best_v) {
      best_v = v;
      best_t = m.t_at(i);
    }
  }
  const auto refined = numerics::brent_minimize(
      [&multi](double t) { return multi.expectation(t); },
      std::max(lo, best_t - step), std::min(hi, best_t + step), 1e-6);
  TimeoutOptimum opt;
  opt.t_inf = refined.value < best_v ? refined.x : best_t;
  opt.metrics = multi.evaluate(opt.t_inf);
  return opt;
}

TEST(MultipleSubmission, PrefixFloorLeavesTheOptimumBitIdentical) {
  for (const auto& [label, m] : testutil::floor_net_models()) {
    for (const int b : {1, 2, 5, 10}) {
      const MultipleSubmission multi(m, b);
      const double bounds[][2] = {{-1.0, -1.0},
                                  {2.5 * m.step(), 0.6 * m.horizon()}};
      for (const auto& [lo, hi] : bounds) {
        const TimeoutOptimum want = unpruned_multiple_optimum(multi, lo, hi);
        const TimeoutOptimum got = multi.optimize(lo, hi);
        const std::string where = label + ", b " + std::to_string(b) +
                                  ", t in [" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]";
        EXPECT_EQ(got.t_inf, want.t_inf) << where;
        EXPECT_EQ(got.metrics.expectation, want.metrics.expectation)
            << where;
        EXPECT_EQ(got.metrics.std_deviation, want.metrics.std_deviation)
            << where;
      }
    }
  }
}

// Property sweep across (b, t_inf): sanity invariants of eq. 3/4.
class MultiSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MultiSweep, MomentsAreFiniteAndOrdered) {
  const auto [b, t_inf] = GetParam();
  const auto m = shared_model();
  const MultipleSubmission multi(m, b);
  const double ej = multi.expectation(t_inf);
  ASSERT_TRUE(std::isfinite(ej));
  EXPECT_GT(ej, 0.0);
  const double e2 = multi.second_moment(t_inf);
  EXPECT_GE(e2, ej * ej - 1e-6);  // variance non-negative
  // E_J can never undercut the floor of the latency distribution (60 s).
  EXPECT_GE(ej, 59.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 12, 20),
                       ::testing::Values(150.0, 400.0, 900.0, 2500.0)));

}  // namespace
}  // namespace gridsub::core
