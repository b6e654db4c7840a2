#include "traces/generator.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

#include "stats/lognormal.hpp"

namespace gridsub::traces {

/// Probes kept in flight: each completion or cancellation submits the next.
constexpr std::size_t kConcurrentProbes = 10;
/// Log-normal shape of generated job runtimes.
constexpr double kRuntimeSigmaLog = 1.1;

Trace generate_probe_campaign(const stats::Distribution& bulk,
                              const GeneratorConfig& config) {
  if (config.n_probes == 0) {
    throw std::invalid_argument("generate_probe_campaign: n_probes == 0");
  }
  stats::Rng rng(config.seed);
  Trace trace(config.name, kProbeTimeout);

  struct InFlight {
    double finish_time;  // completion or cancellation instant
    double submit_time;
    double latency;      // drawn latency (may exceed timeout)
    bool fault;
  };
  const auto cmp = [](const InFlight& a, const InFlight& b) {
    return a.finish_time > b.finish_time;
  };
  std::priority_queue<InFlight, std::vector<InFlight>, decltype(cmp)> heap(
      cmp);

  std::size_t submitted = 0;
  const auto submit = [&](double now) {
    InFlight p;
    p.submit_time = now;
    p.fault = rng.bernoulli(config.fault_ratio);
    if (p.fault) {
      // Faults are detected at the campaign timeout (the probe simply never
      // starts and is canceled like an outlier).
      p.latency = kProbeTimeout;
      p.finish_time = now + kProbeTimeout;
    } else {
      p.latency = bulk.sample(rng);
      p.finish_time = now + std::min(p.latency, kProbeTimeout);
    }
    heap.push(p);
    ++submitted;
  };

  const std::size_t initial = std::min(kConcurrentProbes, config.n_probes);
  for (std::size_t i = 0; i < initial; ++i) submit(0.0);

  while (!heap.empty()) {
    const InFlight done = heap.top();
    heap.pop();
    if (done.fault) {
      trace.add_fault(done.submit_time);
    } else if (done.latency > kProbeTimeout) {
      trace.add_outlier(done.submit_time);
    } else {
      trace.add_completed(done.submit_time, done.latency);
    }
    if (submitted < config.n_probes) submit(done.finish_time);
  }
  return trace;
}

Trace match_sample_moments(const Trace& trace, double target_mean,
                           double target_stddev, double floor) {
  if (!(target_mean > 0.0) || !(target_stddev > 0.0)) {
    throw std::invalid_argument("match_sample_moments: targets must be > 0");
  }
  std::vector<double> values = trace.completed_latencies();
  if (values.size() < 2) {
    throw std::invalid_argument(
        "match_sample_moments: needs >= 2 completed probes");
  }
  const double hi = trace.timeout() * (1.0 - 1e-9);
  const double lo = std::min(floor, target_mean);

  const auto moments = [](const std::vector<double>& v) {
    double m = 0.0;
    for (const double x : v) m += x;
    m /= static_cast<double>(v.size());
    double ss = 0.0;
    for (const double x : v) ss += (x - m) * (x - m);
    // Population variance, matching TraceStats.
    return std::pair{m, std::sqrt(ss / static_cast<double>(v.size()))};
  };

  for (int iter = 0; iter < 32; ++iter) {
    const auto [m, s] = moments(values);
    if (std::abs(m - target_mean) <= 1e-3 * target_mean &&
        std::abs(s - target_stddev) <= 1e-3 * target_stddev) {
      break;
    }
    if (!(s > 0.0)) break;  // degenerate sample; give up gracefully
    const double scale = target_stddev / s;
    for (double& x : values) {
      x = std::clamp(target_mean + (x - m) * scale, lo, hi);
    }
  }

  Trace out(trace.name(), trace.timeout());
  std::size_t next = 0;
  for (const ProbeRecord& r : trace.records()) {
    ProbeRecord corrected = r;
    if (r.status == ProbeStatus::kCompleted) corrected.latency = values[next++];
    out.add_record(corrected);
  }
  return out;
}

Workload generate_workload(const std::function<double(double)>& rate_fn,
                           const WorkloadGenConfig& config) {
  if (!rate_fn) {
    throw std::invalid_argument("generate_workload: null rate function");
  }
  if (!(config.peak_rate > 0.0)) {
    throw std::invalid_argument("generate_workload: peak_rate must be > 0");
  }
  if (!(config.duration > 0.0)) {
    throw std::invalid_argument("generate_workload: duration must be > 0");
  }
  stats::Rng rng(config.seed);
  // Validates runtime_mean > 0.
  const stats::LogNormal runtime_dist = stats::LogNormal::from_mean_and_sigma_log(
      config.runtime_mean, kRuntimeSigmaLog);

  Workload w(config.name);
  // Lewis-Shedler thinning: candidate arrivals at the envelope rate, each
  // kept with probability rate(t)/peak.
  double t = 0.0;
  while (true) {
    t += rng.exponential(config.peak_rate);
    if (t >= config.duration) break;
    const double rate =
        std::clamp(rate_fn(t), 0.0, config.peak_rate);
    if (rng.uniform01() <= rate / config.peak_rate) {
      w.add_job(t, runtime_dist.sample(rng));
    }
  }
  return w;
}

}  // namespace gridsub::traces
