// Virtual-screening campaign planning — the second application domain the
// paper's community ran on the biomed VO (docking millions of ligands,
// cf. the WISDOM initiative cited as [9]).
//
// Scenario: a chemist needs 10,000 independent docking tasks of ~30 min
// each, split into batches, and wants a wall-clock estimate and a strategy
// choice *before* burning CPU-hours. We build the total-latency law of
// each candidate strategy on last week's probe model and compare expected
// makespan, tail risk (p99) and billed grid time at several batch sizes.

#include <cstdio>

#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "core/total_latency.hpp"
#include "model/discretized.hpp"
#include "traces/datasets.hpp"
#include "workflow/makespan.hpp"

int main() {
  using namespace gridsub;
  constexpr std::size_t kTasks = 10000;
  constexpr double kDockSeconds = 1800.0;

  const auto trace = traces::make_trace_by_name("2007/08");
  const auto model = model::DiscretizedLatencyModel::from_trace(trace, 1.0);

  std::printf("virtual screening: %zu docking tasks x %.0f s, planned on "
              "the %s probe model\n\n",
              kTasks, kDockSeconds, trace.name().c_str());

  // Candidate strategies at their per-job latency optima.
  const auto single_opt = core::MultipleSubmission(model, 1).optimize();
  const auto multi_opt = core::MultipleSubmission(model, 4).optimize();
  const auto delayed_opt = core::DelayedResubmission(model).optimize();

  struct Candidate {
    const char* label;
    workflow::MakespanModel makespan;
  };
  const Candidate candidates[] = {
      {"single resubmission",
       workflow::MakespanModel(core::TotalLatencyDistribution::multiple(
           model, 1, single_opt.t_inf))},
      {"multiple submission b=4",
       workflow::MakespanModel(core::TotalLatencyDistribution::multiple(
           model, 4, multi_opt.t_inf))},
      {"delayed resubmission",
       workflow::MakespanModel(core::TotalLatencyDistribution::delayed(
           model, delayed_opt.t0, delayed_opt.t_inf))},
  };

  for (const std::size_t batch : {500u, 2000u, 10000u}) {
    const std::size_t waves = kTasks / batch;
    std::printf("-- batch size %zu (%zu waves, barrier between waves)\n",
                batch, waves);
    std::printf("%-26s %14s %12s %12s %14s\n", "strategy",
                "campaign (h)", "wave p99 (h)", "latency %", "grid CPU-h");
    for (const auto& c : candidates) {
      const workflow::BagOfTasks wave{batch, kDockSeconds};
      const auto est = c.makespan.estimate(wave);
      const double campaign_hours =
          static_cast<double>(waves) * est.expectation / 3600.0;
      const double latency_share =
          100.0 * (est.expectation - kDockSeconds) / est.expectation;
      const double cpu_hours =
          static_cast<double>(waves) * est.job_seconds / 3600.0;
      std::printf("%-26s %14.1f %12.2f %11.1f%% %14.0f\n", c.label,
                  campaign_hours, est.p99 / 3600.0, latency_share,
                  cpu_hours);
    }
    std::printf("\n");
  }

  std::printf(
      "reading: larger batches amortize the per-wave latency tail, and the "
      "strategy choice moves the campaign by hours — multiple submission "
      "buys the shortest wall-clock at a higher CPU bill, delayed "
      "resubmission most of the win at near-baseline cost (paper §7).\n");
  return 0;
}
