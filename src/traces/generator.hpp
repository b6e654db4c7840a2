#pragma once

// Probe-campaign generator.
//
// Reproduces the paper's measurement methodology (§3.2): a constant number
// of probe jobs is kept in flight — each time a probe completes (or is
// canceled at the timeout) a new one is submitted — so monitoring does not
// modulate the system load. Latencies are drawn from a latency bulk
// distribution; a fault ratio injects outright failures. The result is a
// Trace with realistic submission timestamps.

#include <cstdint>
#include <functional>
#include <string>

#include "stats/distribution.hpp"
#include "traces/trace.hpp"
#include "traces/workload.hpp"

namespace gridsub::traces {

/// Cancellation threshold of a probe (s): the paper's 10^4 s outlier
/// timeout, at which every synthetic trace is censored.
inline constexpr double kProbeTimeout = 10000.0;

/// Parameters of a synthetic probe campaign.
struct GeneratorConfig {
  std::string name = "synthetic";
  std::size_t n_probes = 1000;      ///< total probes to log
  double fault_ratio = 0.0;         ///< P(outright failure) per probe
  std::uint64_t seed = 1;           ///< RNG seed
};

/// Runs the campaign: draws each probe's latency from `bulk` (a fault with
/// probability fault_ratio, an outlier if the draw exceeds kProbeTimeout)
/// and schedules submissions so ten probes are always in flight.
Trace generate_probe_campaign(const stats::Distribution& bulk,
                              const GeneratorConfig& config);

/// Affine-corrects the completed latencies of `trace` so their *sample*
/// mean and standard deviation equal the targets (the paper's Table 1
/// columns are sample statistics of the real traces, so exact-match is the
/// faithful reproduction). Values are clamped into [floor, trace.timeout)
/// and the correction is iterated until clamping-induced drift is below
/// 0.1%. Record order, submit times and statuses are preserved.
/// Requires at least two completed probes and positive targets.
Trace match_sample_moments(const Trace& trace, double target_mean,
                           double target_stddev, double floor = 1.0);

/// Parameters of a synthetic workload (job-arrival) generation run.
struct WorkloadGenConfig {
  std::string name = "synthetic-load";
  double duration = 604800.0;      ///< horizon in seconds (default: 1 week)
  double peak_rate = 1.0;          ///< thinning envelope: >= sup rate_fn (1/s)
  double runtime_mean = 2200.0;    ///< log-normal runtime mean (s)
  std::uint64_t seed = 1;          ///< RNG seed (fully deterministic)
};

/// Draws job arrivals from the non-homogeneous Poisson process with
/// instantaneous rate `rate_fn(t)` over [0, duration) via Lewis-Shedler
/// thinning under the `peak_rate` envelope, with log-normal runtimes of
/// shape sigma_log 1.1. rate_fn values are clamped into [0, peak_rate];
/// requires peak_rate > 0, duration > 0, runtime_mean > 0. Deterministic
/// in the seed.
Workload generate_workload(const std::function<double(double)>& rate_fn,
                           const WorkloadGenConfig& config);

}  // namespace gridsub::traces
