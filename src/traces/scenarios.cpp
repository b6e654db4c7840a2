#include "traces/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "traces/generator.hpp"

namespace gridsub::traces {

namespace {

constexpr double kDay = 86400.0;
constexpr double kPi = 3.14159265358979323846;

/// Dimensionless load shape (time-average ~1 before normalization).
using ShapeFn = std::function<double(double)>;

ShapeFn stationary_shape() {
  return [](double) { return 1.0; };
}

ShapeFn diurnal_shape() {
  // Day/night sinusoid (trough at midnight, crest at noon) with a weekend
  // dip — the human submission cycle every grid workload study reports.
  return [](double t) {
    const double day_index = std::floor(t / kDay);
    const double weekday = std::fmod(day_index, 7.0);
    const double day_factor = weekday < 5.0 ? 1.0 : 0.55;
    const double phase = std::fmod(t, kDay) / kDay;
    return day_factor * (1.0 + 0.6 * std::sin(2.0 * kPi * phase - kPi / 2.0));
  };
}

ShapeFn burst_shape() {
  // Quiet floor with three 6-hour submission storms (days 1, 3, 5 at
  // 08:00) — campaign-style usage where one user floods the broker.
  return [](double t) {
    for (const double day : {1.0, 3.0, 5.0}) {
      const double start = day * kDay + 8.0 * 3600.0;
      if (t >= start && t < start + 6.0 * 3600.0) return 4.0;
    }
    return 0.6;
  };
}

ShapeFn outage_shape() {
  // Normal load, a 12-hour dead window on day 3 (site/WMS outage: nothing
  // reaches the broker), then the held-back backlog flushes at 3x until
  // the end of day 3.
  return [](double t) {
    const double outage_start = 3.0 * kDay;
    const double flush_start = outage_start + 12.0 * 3600.0;
    const double flush_end = 4.0 * kDay;
    if (t >= outage_start && t < flush_start) return 0.0;
    if (t >= flush_start && t < flush_end) return 3.0;
    return 1.0;
  };
}

ShapeFn shape_by_name(const std::string& name) {
  if (name == "stationary-week") return stationary_shape();
  if (name == "diurnal-week") return diurnal_shape();
  if (name == "burst-week") return burst_shape();
  if (name == "outage-week") return outage_shape();
  throw std::out_of_range("make_scenario: unknown scenario '" + name + "'");
}

}  // namespace

std::vector<std::string> replay_scenario_names() {
  return {"stationary-week", "diurnal-week", "burst-week", "outage-week"};
}

Workload make_scenario(const std::string& name,
                       const ScenarioConfig& config) {
  if (!(config.base_rate > 0.0)) {
    throw std::invalid_argument("make_scenario: base_rate must be > 0");
  }
  if (!(config.duration > 0.0)) {
    throw std::invalid_argument("make_scenario: duration must be > 0");
  }
  const ShapeFn shape = shape_by_name(name);

  // Normalize so the time-averaged rate equals base_rate regardless of the
  // shape: scenarios then differ only in how the same total work is spread
  // over the week. Midpoint sampling at 60 s resolves every plateau edge
  // and the sinusoid to well under the thinning noise; capping the step at
  // the duration guarantees at least one sample for short horizons.
  const double kStep = std::min(60.0, config.duration);
  double sum = 0.0, peak = 0.0;
  std::size_t n = 0;
  for (double t = 0.5 * kStep; t < config.duration; t += kStep) {
    const double s = shape(t);
    sum += s;
    peak = std::max(peak, s);
    ++n;
  }
  const double mean_shape = sum / static_cast<double>(n);
  if (!(mean_shape > 0.0) || !(peak > 0.0)) {
    throw std::runtime_error("make_scenario: degenerate shape for " + name);
  }
  const double scale = config.base_rate / mean_shape;

  WorkloadGenConfig gen;
  gen.name = name;
  gen.duration = config.duration;
  // 1% envelope headroom over the sampled peak; generate_workload clamps
  // the rate to the envelope, so a sub-sample sinusoid crest only loses a
  // vanishing sliver of mass rather than biasing the draw.
  gen.peak_rate = scale * peak * 1.01;
  gen.runtime_mean = config.runtime_mean;
  gen.seed = config.seed;
  return generate_workload(
      [scale, &shape](double t) { return scale * shape(t); }, gen);
}

}  // namespace gridsub::traces
