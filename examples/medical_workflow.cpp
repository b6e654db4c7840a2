// Medical-imaging workflow on the grid — the application domain that
// motivated the paper (the authors run biomed VO workloads such as
// image-analysis pipelines).
//
// Scenario: a study of 400 independent image-analysis jobs, each with a
// known 90 s compute kernel, submitted through the biomed-like week
// 2007-51. The application-level metric is the *makespan contribution of
// latency*: with limited client-side concurrency, tail latencies dominate
// wall-clock. We compare the three strategies end-to-end with the Monte
// Carlo engine and report per-strategy latency, spread, and grid load.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/cost.hpp"
#include "mc/mc_engine.hpp"
#include "model/discretized.hpp"
#include "traces/datasets.hpp"

int main() {
  using namespace gridsub;
  constexpr int kJobs = 400;
  constexpr double kKernelSeconds = 90.0;

  const auto trace = traces::make_trace_by_name("2007-51");
  const auto model = model::DiscretizedLatencyModel::from_trace(trace, 1.0);
  const core::CostModel cost(model);

  std::printf("medical workflow: %d analysis jobs of %.0f s each on the "
              "%s latency regime\n\n",
              kJobs, kKernelSeconds, trace.name().c_str());

  struct Plan {
    const char* label;
    core::CostEvaluation eval;
  };
  std::vector<Plan> plans;
  plans.push_back({"single resubmission (baseline)",
                   cost.evaluate_single()});
  plans.push_back({"multiple submission b=3", cost.evaluate_multiple(3)});
  const auto d_latency = cost.delayed().optimize();
  plans.push_back({"delayed (latency-optimal)",
                   cost.evaluate_delayed(d_latency.t0, d_latency.t_inf)});
  plans.push_back({"delayed (cost-optimal)", cost.optimize_delayed_cost()});

  std::printf("%-34s %10s %10s %12s %10s %10s\n", "strategy", "E_J(s)",
              "job(s)", "study CPU-h", "N_par", "d_cost");
  mc::McOptions mo;
  mo.replications = 100000;
  for (const auto& plan : plans) {
    // Monte Carlo the actual client protocol for per-job latency.
    mc::McResult mc;
    switch (plan.eval.kind) {
      case core::StrategyKind::kSingleResubmission:  // b == 1
      case core::StrategyKind::kMultipleSubmission:
        mc = mc::simulate_multiple(model, plan.eval.b, plan.eval.t_inf, mo);
        break;
      case core::StrategyKind::kDelayedResubmission:
        mc = mc::simulate_delayed(model, plan.eval.t0, plan.eval.t_inf, mo);
        break;
    }
    const double per_job = mc.mean_latency + kKernelSeconds;
    // Grid CPU consumed by the study: latency occupancy + kernels.
    const double cpu_hours =
        kJobs *
        (mc.aggregate_parallel * mc.mean_latency + kKernelSeconds) / 3600.0;
    std::printf("%-34s %10.0f %10.0f %12.1f %10.2f %10.2f\n", plan.label,
                mc.mean_latency, per_job, cpu_hours,
                mc.aggregate_parallel, plan.eval.delta_cost);
  }

  std::printf(
      "\nreading: multiple submission minimizes per-job latency but "
      "multiplies the study's grid occupancy; the cost-optimal delayed "
      "configuration keeps latency below the baseline at near-baseline "
      "occupancy. Note the MC N_par column: the *measured* job-seconds "
      "sit a little above what the paper's d_cost accounting promises — "
      "the Jensen bias quantified in bench_ablation_cost_accounting.\n");
  return 0;
}
