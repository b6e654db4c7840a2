#pragma once

// Synthetic non-stationary replay scenarios.
//
// The paper's §7 conclusion — strategy parameters tuned on one week stay
// near-optimal on later weeks — is only testable under realistic
// *non-stationary* load. When no external SWF file is available, this
// library synthesizes week-long workloads with the load shapes grid
// workload studies repeatedly observe (Medernach's LPC analysis,
// Guazzone's grid mining; see PAPERS.md):
//
//   stationary-week — constant-rate Poisson control, the BackgroundLoad
//                     regime expressed as a replayable workload;
//   diurnal-week    — day/night sinusoid with a weekend dip (the
//                     human-driven submission cycle);
//   burst-week      — a quiet floor punctuated by heavy submission bursts
//                     (campaign-style usage: one user floods the broker);
//   outage-week     — normal load, a dead window (site/WMS outage), then a
//                     backlog flush at a multiple of the normal rate.
//
// Every scenario is normalized so its *time-averaged* rate equals
// `base_rate`: scenarios differ only in how the same total work is
// distributed over the week, which isolates the effect of
// non-stationarity in E_J comparisons. Generation is deterministic in the
// seed.

#include <cstdint>
#include <string>
#include <vector>

#include "traces/workload.hpp"

namespace gridsub::traces {

struct ScenarioConfig {
  double base_rate = 0.45;         ///< time-averaged arrival rate (jobs/s)
  double duration = 604800.0;      ///< scenario length (s); default 1 week
  double runtime_mean = 2200.0;    ///< log-normal runtime mean (s)
  std::uint64_t seed = 20090611;   ///< deterministic generation seed
};

/// All scenario names, stationary control first.
std::vector<std::string> replay_scenario_names();

/// Synthesizes the named scenario ("stationary-week", "diurnal-week",
/// "burst-week", "outage-week"); throws std::out_of_range for unknown
/// names. Requires base_rate > 0 and duration > 0.
Workload make_scenario(const std::string& name,
                       const ScenarioConfig& config = {});

}  // namespace gridsub::traces
