// Closing the loop on the discrete-event grid (and the paper's future
// work): measure the simulated infrastructure with a probe campaign,
// model it, tune a delayed strategy on the measurements, then run a fleet
// of clients using that strategy on the same grid and compare predicted
// vs experienced latency — including the perturbation the fleet itself
// causes.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/cost.hpp"
#include "model/discretized.hpp"
#include "sim/grid.hpp"
#include "sim/probe_client.hpp"
#include "sim/strategy_client.hpp"

int main() {
  using namespace gridsub;

  // Phase 1: probe the grid, as the paper's measurement campaigns do.
  sim::GridConfig config = sim::GridConfig::egee_like();
  config.background.arrival_rate = 0.25;
  sim::GridSimulation measured(config);
  measured.warm_up(30000.0);
  sim::ProbeCampaignConfig pc;
  pc.n_probes = 800;
  pc.concurrent = 10;
  sim::ProbeClient probe(measured, pc, "des-week");
  probe.start();
  // The trace is all phase 1 reads, and it is final once every probe has
  // settled, so stop there rather than at the horizon.
  measured.simulator().run_until(measured.simulator().now() + 1.5e7,
                                 [&probe] { return probe.done(); });
  const auto stats = probe.trace().stats();
  std::printf("probe campaign: %zu probes, mean latency %.0f s (sd %.0f), "
              "outliers %.1f%%\n",
              probe.trace().size(), stats.mean_completed,
              stats.stddev_completed, 100.0 * stats.outlier_ratio);

  // Phase 2: model + tune.
  const auto model =
      model::DiscretizedLatencyModel::from_trace(probe.trace(), 2.0);
  const core::CostModel cost(model);
  const auto tuned = cost.optimize_delayed_cost();
  std::printf("tuned delayed strategy: t0 = %.0f s, t_inf = %.0f s, "
              "predicted E_J = %.0f s, d_cost = %.2f\n\n",
              tuned.t0, tuned.t_inf, tuned.expectation, tuned.delta_cost);

  // Phase 3: a fleet adopts the tuned strategy on a fresh, identically
  // seeded grid; sweep the fleet size to expose the feedback effect.
  std::printf("%8s %14s %14s %12s %12s\n", "clients", "mean J (s)",
              "vs predicted", "subs/task", "canceled");
  for (int fleet : {1, 8, 32, 96}) {
    sim::GridSimulation grid(config);
    grid.warm_up(30000.0);
    const auto canceled_before = grid.metrics().jobs_canceled;
    std::vector<std::unique_ptr<sim::StrategyClient>> clients;
    sim::StrategySpec spec;
    spec.kind = core::StrategyKind::kDelayedResubmission;
    spec.t0 = tuned.t0;
    spec.t_inf = tuned.t_inf;
    for (int c = 0; c < fleet; ++c) {
      clients.push_back(
          std::make_unique<sim::StrategyClient>(grid, spec, 30));
    }
    for (auto& c : clients) c->start();
    // The outcomes and the cancel count are final once every client is
    // done: a settled task has canceled all of its copies and timeouts.
    grid.simulator().run_until(grid.simulator().now() + 6e7, [&clients] {
      return std::all_of(clients.begin(), clients.end(),
                         [](const auto& c) { return c->done(); });
    });

    double mean_j = 0.0, mean_subs = 0.0;
    std::size_t done = 0;
    for (const auto& c : clients) {
      for (const auto& o : c->outcomes()) {
        mean_j += o.total_latency;
        mean_subs += o.submissions;
        ++done;
      }
    }
    if (done == 0) continue;
    mean_j /= static_cast<double>(done);
    mean_subs /= static_cast<double>(done);
    std::printf("%8d %14.0f %+13.1f%% %12.2f %12llu\n", fleet, mean_j,
                100.0 * (mean_j - tuned.expectation) / tuned.expectation,
                mean_subs,
                static_cast<unsigned long long>(grid.metrics().jobs_canceled -
                                                canceled_before));
  }
  std::printf(
      "\nreading: the tuned strategy tracks its prediction for small "
      "fleets; as adoption grows the fleet's own submissions and "
      "cancellations shift the latency distribution it was tuned on — "
      "the feedback the paper flags as future work.\n");
  return 0;
}
