#include "exp/fold.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/campaign.hpp"
#include "parallel/thread_pool.hpp"

namespace gridsub::exp {
namespace {

CampaignAxes small_axes(std::size_t scenarios = 2, std::size_t strategies = 2,
                        std::size_t reps = 3) {
  CampaignAxes axes;
  axes.name = "fold_test";
  for (std::size_t i = 0; i < scenarios; ++i) {
    axes.scenario_labels.push_back("sc" + std::to_string(i));
  }
  for (std::size_t i = 0; i < strategies; ++i) {
    axes.strategy_labels.push_back("st" + std::to_string(i));
  }
  axes.replications = reps;
  axes.root_seed = 7;
  return axes;
}

TEST(MomentFold, MatchesNaiveOnTameData) {
  MomentFold fold;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  double naive = 0.0;
  for (const double x : xs) {
    fold.add(x);
    naive += x;
  }
  EXPECT_EQ(fold.count(), xs.size());
  EXPECT_DOUBLE_EQ(fold.mean(), naive / 4.0);
  // Sample sem of {1,2,3,4}: sqrt(5/3)/2.
  EXPECT_NEAR(fold.sem(), std::sqrt(5.0 / 3.0) / 2.0, 1e-15);
  EXPECT_DOUBLE_EQ(fold.min(), 1.0);
  EXPECT_DOUBLE_EQ(fold.max(), 4.0);
}

TEST(MomentFold, CompensationSurvivesAdversarialMagnitudeSpread) {
  // Naive left-to-right summation annihilates the small term: 1e16 + 1
  // rounds back to 1e16, so (1e16 + 1) - 1e16 == 0 in double. The
  // compensated fold keeps the lost low-order bits.
  MomentFold fold;
  double naive = 0.0;
  for (const double x : {1e16, 1.0, -1e16}) {
    fold.add(x);
    naive += x;
  }
  EXPECT_DOUBLE_EQ(naive, 0.0);  // demonstrates the naive failure mode
  EXPECT_DOUBLE_EQ(fold.mean() * 3.0, 1.0);

  // A longer adversarial mix: many tiny terms under a huge alternating
  // carrier. The carrier cancels exactly; the tiny terms must survive.
  MomentFold fine;
  double expected = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double carrier = (i % 2 == 0) ? 1e15 : -1e15;
    fine.add(carrier);
    fine.add(1e-3);
    expected += 1e-3;
  }
  EXPECT_NEAR(fine.mean() * 2000.0, expected, 1e-9);
}

TEST(MomentFold, WelfordSemMatchesTwoPass) {
  // Spread values around a large offset: the textbook one-pass
  // sum-of-squares formula loses all significance here; Welford must not.
  std::vector<double> xs;
  const double offset = 1e9;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(offset + static_cast<double>(i % 7) - 3.0);
  }
  MomentFold fold;
  for (const double x : xs) fold.add(x);

  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - mean) * (x - mean);
  const double n = static_cast<double>(xs.size());
  const double two_pass_sem = std::sqrt(m2 / (n - 1.0) / n);

  // Welford carries a few ULPs of the *offset* into M2 (deviations are
  // ~1e-9 of the values here), so match to 1e-7 relative — still eight
  // orders tighter than the textbook sum-of-squares, which loses every
  // significant digit at this offset:
  double sq = 0.0, lin = 0.0;
  for (const double x : xs) {
    sq += x * x;
    lin += x;
  }
  const double naive_var = (sq - lin * lin / n) / (n - 1.0);
  const double true_var = m2 / (n - 1.0);
  EXPECT_GT(std::abs(naive_var - true_var), 0.1 * true_var);

  EXPECT_NEAR(fold.sem(), two_pass_sem, two_pass_sem * 1e-7);
}

TEST(MomentFold, DegenerateCounts) {
  MomentFold fold;
  EXPECT_EQ(fold.count(), 0u);
  EXPECT_DOUBLE_EQ(fold.mean(), 0.0);
  EXPECT_DOUBLE_EQ(fold.sem(), 0.0);
  fold.add(7.5);
  EXPECT_DOUBLE_EQ(fold.mean(), 7.5);
  EXPECT_DOUBLE_EQ(fold.sem(), 0.0);  // n < 2: exactly zero, not NaN
}

TEST(CampaignRunner, PlacesCellsByFlatIndexUnderContention) {
  const CampaignAxes axes = small_axes(4, 2, 4);
  par::ThreadPool pool(8);
  CampaignOptions options;
  options.pool = &pool;
  const CampaignResult result = CampaignRunner(options).run(
      axes, [](const CellContext& ctx) {
        // Jitter completion order: later cells finish sooner.
        if (ctx.flat % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return CellMetrics{{"v", static_cast<double>(ctx.flat)}};
      });
  ASSERT_EQ(result.cells().size(), axes.cell_count());
  for (std::size_t i = 0; i < result.cells().size(); ++i) {
    EXPECT_EQ(result.cells()[i].context.flat, i);
    EXPECT_DOUBLE_EQ(result.cells()[i].metrics[0].second,
                     static_cast<double>(i));
  }
  // Each group folds its own contiguous replications: the first group
  // holds flats 0..3.
  EXPECT_DOUBLE_EQ(result.mean(0, 0, "v"), 1.5);
  EXPECT_DOUBLE_EQ(result.max(0, 0, "v"), 3.0);
}

TEST(FoldSinkAdapter, TakeReturnsTheRunResult) {
  const CampaignAxes axes = small_axes(2, 2, 4);
  const auto evaluate = [](const CellContext& ctx) {
    return CellMetrics{{"v", static_cast<double>(ctx.seed % 1000)}};
  };
  const CampaignResult result = CampaignRunner().run(axes, evaluate);

  FoldSink sink;
  CampaignRunner().run_with_sink(axes, evaluate, sink);
  const CampaignSummary summary = sink.take();

  for (std::size_t sc = 0; sc < 2; ++sc) {
    for (std::size_t st = 0; st < 2; ++st) {
      EXPECT_DOUBLE_EQ(summary.mean(sc, st, "v"), result.mean(sc, st, "v"));
      EXPECT_DOUBLE_EQ(summary.sem(sc, st, "v"), result.sem(sc, st, "v"));
    }
  }
  EXPECT_THROW((void)summary.mean(0, 0, "nope"), std::out_of_range);
}

}  // namespace
}  // namespace gridsub::exp
