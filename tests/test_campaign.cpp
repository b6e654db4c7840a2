#include "exp/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gridsub::exp {
namespace {

CampaignAxes small_axes(std::size_t scenarios = 3, std::size_t strategies = 2,
                        std::size_t reps = 4) {
  CampaignAxes axes;
  axes.name = "test";
  for (std::size_t i = 0; i < scenarios; ++i) {
    axes.scenario_labels.push_back("sc" + std::to_string(i));
  }
  for (std::size_t i = 0; i < strategies; ++i) {
    axes.strategy_labels.push_back("st" + std::to_string(i));
  }
  axes.replications = reps;
  axes.root_seed = 42;
  return axes;
}

std::string json_of(const CampaignResult& result) {
  std::ostringstream os;
  result.write_json(os);
  return os.str();
}

/// Analytic evaluator: cheap, deterministic in the context only.
CellMetrics analytic_cell(const CellContext& ctx) {
  return {{"value", static_cast<double>(ctx.seed % 1000)},
          {"index", static_cast<double>(ctx.flat)}};
}

TEST(CampaignAxes, FlatDecodeRoundTrips) {
  const CampaignAxes axes = small_axes();
  EXPECT_EQ(axes.cell_count(), 24u);
  for (std::size_t flat = 0; flat < axes.cell_count(); ++flat) {
    const CellContext ctx = axes.cell(flat);
    EXPECT_EQ(ctx.flat, flat);
    EXPECT_EQ((ctx.scenario * axes.strategy_labels.size() + ctx.strategy) *
                      axes.replications +
                  ctx.replication,
              flat);
  }
}

TEST(CampaignAxes, CellSeedsAreDistinctAndIndexOnly) {
  const CampaignAxes axes = small_axes(4, 3, 8);
  std::set<std::uint64_t> seeds;
  for (std::size_t flat = 0; flat < axes.cell_count(); ++flat) {
    seeds.insert(axes.cell(flat).seed);
  }
  EXPECT_EQ(seeds.size(), axes.cell_count());  // no collisions
  // Seed depends on indices only, not on any runner state.
  EXPECT_EQ(axes.cell_seed(1, 2, 3), axes.cell_seed(1, 2, 3));
  EXPECT_NE(axes.cell_seed(1, 2, 3), axes.cell_seed(2, 1, 3));
  // A different root produces a different stream.
  CampaignAxes other = axes;
  other.root_seed = 43;
  EXPECT_NE(axes.cell_seed(0, 0, 0), other.cell_seed(0, 0, 0));
}

TEST(CampaignAxes, ValidateRejectsDegenerateGrids) {
  CampaignAxes axes = small_axes();
  axes.scenario_labels.clear();
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = small_axes();
  axes.strategy_labels.clear();
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = small_axes();
  axes.replications = 0;
  EXPECT_THROW(axes.validate(), std::invalid_argument);
}

TEST(CampaignRunner, ResultsLandInFlatOrderAtAnyThreadCount) {
  const CampaignAxes axes = small_axes();
  par::ThreadPool one(1);
  CampaignOptions serial_options;
  serial_options.pool = &one;
  const CampaignResult serial =
      CampaignRunner(serial_options).run(axes, analytic_cell);
  ASSERT_EQ(serial.cells().size(), axes.cell_count());
  for (std::size_t flat = 0; flat < axes.cell_count(); ++flat) {
    EXPECT_EQ(serial.cells()[flat].context.flat, flat);
  }

  par::ThreadPool wide(8);
  CampaignOptions options;
  options.pool = &wide;
  const CampaignResult parallel = CampaignRunner(options).run(axes,
                                                              analytic_cell);
  EXPECT_EQ(json_of(serial), json_of(parallel));  // byte-identical
}

TEST(CampaignRunner, AggregatesMeanAndStderr) {
  CampaignAxes axes = small_axes(1, 1, 4);
  // Replications produce 1, 2, 3, 4 -> mean 2.5, sem sqrt(5/3)/2.
  const CampaignResult result =
      CampaignRunner().run(axes, [](const CellContext& ctx) {
        return CellMetrics{
            {"x", static_cast<double>(ctx.replication + 1)}};
      });
  EXPECT_DOUBLE_EQ(result.mean(0, 0, "x"), 2.5);
  EXPECT_NEAR(result.sem(0, 0, "x"), std::sqrt(5.0 / 3.0) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(result.max(0, 0, "x"), 4.0);
  EXPECT_THROW((void)result.mean(0, 0, "nope"), std::out_of_range);
  EXPECT_THROW((void)result.mean(0, 1, "x"), std::out_of_range);
  // Single replication: sem is exactly zero.
  axes.replications = 1;
  const CampaignResult single =
      CampaignRunner().run(axes, [](const CellContext&) {
        return CellMetrics{{"x", 7.0}};
      });
  EXPECT_DOUBLE_EQ(single.sem(0, 0, "x"), 0.0);
}

TEST(CampaignRunner, MismatchedMetricNamesThrow) {
  const CampaignAxes axes = small_axes(1, 1, 2);
  EXPECT_THROW(
      (void)CampaignRunner().run(axes,
                                 [](const CellContext& ctx) {
                                   return CellMetrics{
                                       {ctx.replication == 0 ? "a" : "b",
                                        1.0}};
                                 }),
      std::logic_error);
}

TEST(CampaignRunner, CellExceptionsPropagateAfterAllCellsSettle) {
  const CampaignAxes axes = small_axes(2, 2, 2);
  par::ThreadPool pool(4);
  CampaignOptions options;
  options.pool = &pool;
  std::atomic<int> evaluated{0};
  try {
    (void)CampaignRunner(options).run(
        axes, [&](const CellContext& ctx) -> CellMetrics {
          ++evaluated;
          if (ctx.flat == 3 || ctx.flat == 6) {
            throw std::runtime_error("cell " + std::to_string(ctx.flat));
          }
          return {{"v", 1.0}};
        });
    ADD_FAILURE() << "run() returned despite failing cells";
  } catch (const std::runtime_error& e) {
    // The lowest failing flat index wins, whatever the completion order.
    EXPECT_EQ(std::string(e.what()), "cell 3");
  }
  EXPECT_EQ(evaluated.load(), 8);  // no cell was abandoned mid-flight
}

TEST(CampaignRunner, ProgressSnapshotsAreMonotoneAndComplete) {
  const CampaignAxes axes = small_axes(2, 3, 2);
  std::vector<CampaignProgress> snapshots;
  CampaignOptions options;
  options.on_progress = [&snapshots](const CampaignProgress& p) {
    snapshots.push_back(p);
  };
  (void)CampaignRunner(options).run(axes, analytic_cell);
  // One snapshot per cell, serialized by the runner: completed counts up
  // by one each time and ends at total.
  ASSERT_EQ(snapshots.size(), axes.cell_count());
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].completed, i + 1);
    EXPECT_EQ(snapshots[i].total, axes.cell_count());
  }
}

TEST(CampaignResult, JsonIsStructuredAndStable) {
  const CampaignAxes axes = small_axes(2, 1, 2);
  const CampaignResult result = CampaignRunner().run(axes, analytic_cell);
  const std::string json = json_of(result);
  EXPECT_NE(json.find("\"schema\": \"gridsub-campaign-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"aggregates\""), std::string::npos);
  EXPECT_NE(json.find("\"stderr\""), std::string::npos);
  // Re-rendering is bit-stable.
  EXPECT_EQ(json, json_of(result));
}

}  // namespace
}  // namespace gridsub::exp
