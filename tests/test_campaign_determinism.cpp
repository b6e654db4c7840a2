// The campaign engine's headline guarantee, proven on real simulation
// cells: the same ExperimentSpec + root seed produces byte-identical
// CampaignResult JSON at 1, 2, and 8 worker threads. This is what lets a
// campaign run on any pool width without re-validating its results.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "exp/experiment.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::exp {
namespace {

sim::GridConfig tiny_grid() {
  sim::GridConfig config;
  config.elements = {{8, 0.01}, {8, 0.02}};
  config.background.arrival_rate = 0.0;
  return config;
}

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "determinism";
  spec.root_seed = 777;
  spec.replications = 3;
  spec.clients.tasks_per_client = 5;
  spec.clients.warm_up = 500.0;

  traces::ScenarioConfig scen;
  scen.base_rate = 0.02;
  scen.duration = 20000.0;
  scen.seed = 5;
  {
    ScenarioCase sc;
    sc.label = "burst";
    sc.grid = tiny_grid();
    sc.workload = std::make_shared<const traces::Workload>(
        traces::make_scenario("burst-week", scen));
    spec.scenarios.push_back(std::move(sc));
  }
  {
    // A workload-less scenario exercises the Poisson-background path.
    ScenarioCase sc;
    sc.label = "poisson";
    sc.grid = tiny_grid();
    sc.grid.background.arrival_rate = 0.02;
    spec.scenarios.push_back(std::move(sc));
  }
  spec.clients.horizon = 20000.0;

  {
    sim::StrategySpec s;
    s.kind = core::StrategyKind::kSingleResubmission;
    s.t_inf = 800.0;
    spec.strategies.push_back({"single", s});
  }
  {
    sim::StrategySpec s;
    s.kind = core::StrategyKind::kMultipleSubmission;
    s.b = 2;
    s.t_inf = 800.0;
    spec.strategies.push_back({"multiple", s});
  }
  return spec;
}

std::string run_at(const ExperimentSpec& spec, std::size_t threads) {
  par::ThreadPool pool(threads);
  CampaignOptions options;
  options.pool = &pool;
  std::ostringstream os;
  run_experiment(spec, options).write_json(os);
  return os.str();
}

TEST(CampaignDeterminism, ByteIdenticalJsonAt1And2And8Threads) {
  const ExperimentSpec spec = small_spec();
  const std::string at1 = run_at(spec, 1);
  const std::string at2 = run_at(spec, 2);
  const std::string at8 = run_at(spec, 8);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
  // And re-running the whole campaign reproduces the bytes too.
  EXPECT_EQ(at1, run_at(spec, 8));
}

TEST(CampaignDeterminism, DifferentRootSeedChangesResults) {
  ExperimentSpec spec = small_spec();
  const std::string a = run_at(spec, 2);
  spec.root_seed = 778;
  EXPECT_NE(a, run_at(spec, 2));
}

TEST(RunStrategyCell, EmitsTheStandardMetricSet) {
  const ExperimentSpec spec = small_spec();
  const CellMetrics metrics = run_strategy_cell(
      spec.scenarios[0], spec.strategies[0].spec, spec.clients, 12345);
  ASSERT_EQ(metrics.size(), 7u);
  EXPECT_EQ(metrics[0].first, "tasks_done");
  EXPECT_EQ(metrics[1].first, "mean_J");
  EXPECT_LE(metrics[0].second,
            static_cast<double>(spec.clients.tasks_per_client));
  EXPECT_GT(metrics[0].second, 0.0);
  EXPECT_GT(metrics[1].second, 0.0);
}

TEST(ExperimentSpec, ValidatesClientAndScenarioKnobs) {
  ExperimentSpec spec = small_spec();
  spec.clients.horizon = 0.0;  // poisson scenario now has no horizon
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.strategies.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.clients.clients_per_cell = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.scenarios[0].workload =
      std::make_shared<const traces::Workload>(traces::Workload("empty"));
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::exp
