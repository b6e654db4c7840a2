// End-to-end pipeline tests: the full loop the paper describes —
// measure probes -> estimate F̃ -> optimize a strategy -> validate the
// prediction — executed entirely inside the repository, twice:
//  (a) on a synthetic calibrated dataset, validated by Monte Carlo;
//  (b) on the DES grid, with probes measured in simulation and the tuned
//      strategy executed by a live client.

#include <gtest/gtest.h>

#include <cmath>

#include "core/cost.hpp"
#include "core/planner.hpp"
#include "mc/mc_engine.hpp"
#include "model/discretized.hpp"
#include "sim/grid.hpp"
#include "sim/probe_client.hpp"
#include "sim/strategy_client.hpp"
#include "traces/datasets.hpp"
#include "traces/trace_io.hpp"

namespace gridsub {
namespace {

TEST(Pipeline, SyntheticDatasetToValidatedOptimum) {
  const auto trace = traces::make_trace_by_name("2006-IX");
  const auto m = model::DiscretizedLatencyModel::from_trace(trace, 1.0);

  const core::CostModel cost(m);
  const auto opt = cost.optimize_delayed_cost();
  ASSERT_LE(opt.delta_cost, 1.0 + 1e-9);

  // The predicted E_J must match a Monte Carlo execution of the strategy.
  mc::McOptions mo;
  mo.replications = 200000;
  const auto mc = mc::simulate_delayed(m, opt.t0, opt.t_inf, mo);
  EXPECT_NEAR(mc.mean_latency, opt.expectation, 0.02 * opt.expectation);

  // The *fleet* load (billed job-seconds per task) must match the exact
  // expected-job-seconds formula — this is the honest accounting; the
  // paper's N∥(E_J) point estimate is below it by Jensen's inequality.
  const double mc_job_seconds = mc.aggregate_parallel * mc.mean_latency;
  const double predicted_job_seconds =
      cost.delayed().expected_job_seconds(opt.t0, opt.t_inf);
  EXPECT_NEAR(mc_job_seconds, predicted_job_seconds,
              0.02 * predicted_job_seconds);
  EXPECT_LE(opt.n_parallel, opt.n_parallel_fleet + 1e-9);

  // The single-resubmission baseline bills exactly its own latency.
  const auto base = cost.baseline();
  const auto mc_base = mc::simulate_multiple(m, 1, base.t_inf, mo);
  const double single_job_seconds =
      mc_base.aggregate_parallel * mc_base.mean_latency;
  EXPECT_NEAR(single_job_seconds, base.metrics.expectation,
              0.02 * base.metrics.expectation);

  // Under fleet accounting the delayed optimum may or may not beat the
  // baseline (paper's claim holds under its own accounting); what must
  // hold is consistency between the two Δcost values we report.
  EXPECT_NEAR(opt.delta_cost_fleet,
              mc_job_seconds / single_job_seconds,
              0.04 * opt.delta_cost_fleet);
}

TEST(Pipeline, PlannerChoiceIsConsistentWithMc) {
  const auto trace = traces::make_trace_by_name("2008-02");
  const auto m = model::DiscretizedLatencyModel::from_trace(trace, 1.0);
  const core::StrategyPlanner planner(m);
  core::PlannerOptions options;
  options.objective = core::PlannerOptions::Objective::kMinLatency;
  options.max_parallel_jobs = 5.0;
  options.max_b = 5;
  const auto rec = planner.recommend(options);
  ASSERT_EQ(rec.choice.kind, core::StrategyKind::kMultipleSubmission);
  mc::McOptions mo;
  mo.replications = 150000;
  const auto mc =
      mc::simulate_multiple(m, rec.choice.b, rec.choice.t_inf, mo);
  EXPECT_NEAR(mc.mean_latency, rec.choice.expectation,
              0.02 * rec.choice.expectation);
}

TEST(Pipeline, DesProbesFeedTheModelingChain) {
  // Measure the simulated grid with probes, fit the empirical model, find
  // the optimal single-resubmission timeout, then run a strategy client
  // with that timeout on a fresh copy of the same grid and compare.
  sim::GridConfig config = sim::GridConfig::egee_like();
  config.elements.resize(6);  // trim for speed
  config.background.arrival_rate = 0.12;

  sim::GridSimulation measured(config);
  measured.warm_up(20000.0);
  sim::ProbeCampaignConfig pc;
  pc.n_probes = 500;
  pc.concurrent = 10;
  sim::ProbeClient probe(measured, pc, "des-campaign");
  probe.start();
  measured.simulator().run_until(measured.simulator().now() + 8e6,
                                 [&probe] { return probe.done(); });
  ASSERT_TRUE(probe.done());

  const auto m =
      model::DiscretizedLatencyModel::from_trace(probe.trace(), 2.0);
  const core::MultipleSubmission single(m, 1);
  const auto opt = single.optimize();
  ASSERT_TRUE(std::isfinite(opt.metrics.expectation));

  // Execute the tuned strategy on an identically-seeded grid.
  sim::GridSimulation fresh(config);
  fresh.warm_up(20000.0);
  sim::StrategySpec spec;
  spec.kind = core::StrategyKind::kSingleResubmission;
  spec.t_inf = opt.t_inf;
  sim::StrategyClient client(fresh, spec, 150);
  client.start();
  fresh.simulator().run_until(fresh.simulator().now() + 3e7,
                              [&client] { return client.done(); });
  ASSERT_TRUE(client.done());

  // The model was estimated from probes on the *same* infrastructure, so
  // the measured mean should be in the predicted ballpark (the strategy
  // client adds its own load, so allow a generous band).
  EXPECT_GT(client.mean_latency(), 0.3 * opt.metrics.expectation);
  EXPECT_LT(client.mean_latency(), 3.0 * opt.metrics.expectation);
}

TEST(Pipeline, TraceCsvRoundTripPreservesModelDecisions) {
  const auto trace = traces::make_trace_by_name("2007-51");
  const std::string path = ::testing::TempDir() + "/pipeline_trace.csv";
  traces::write_csv_file(path, trace);
  const auto restored = traces::read_csv_file(path);
  const auto m1 = model::DiscretizedLatencyModel::from_trace(trace, 1.0);
  const auto m2 = model::DiscretizedLatencyModel::from_trace(restored, 1.0);
  const core::MultipleSubmission s1(m1, 1), s2(m2, 1);
  EXPECT_DOUBLE_EQ(s1.optimize().t_inf, s2.optimize().t_inf);
}

}  // namespace
}  // namespace gridsub
