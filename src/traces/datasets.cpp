#include "traces/datasets.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "stats/fit.hpp"
#include "stats/lognormal.hpp"
#include "stats/shifted.hpp"
#include "traces/generator.hpp"

namespace gridsub::traces {

namespace {

// Table 1 of the paper: (mean < 10^5, mean with 10^5, sigma_R). rho is
// derived from the censored-mean identity, see header. Week sizes follow
// the paper's total of 10,893 probes: 2,005 for 2006-IX and 808 per week
// (2,005 + 11 * 808 = 10,893).
constexpr std::size_t kWeekSize = 808;
constexpr std::size_t k2006Size = 2005;

double derive_rho(double mean_less, double mean_with, double timeout) {
  return (mean_with - mean_less) / (timeout - mean_less);
}

std::vector<DatasetConfig> build_registry() {
  struct Row {
    const char* name;
    std::size_t n;
    double mean_less;
    double mean_with;
    double sigma;
    std::uint64_t seed;
  };
  // The latency floor (shift) models the fixed middleware traversal
  // (credential delegation, match-making, dispatch); EGEE probes are never
  // observed below a few tens of seconds.
  const Row rows[] = {
      {"2006-IX", k2006Size, 570.0, 1042.0, 886.0, 0xE6E51001},
      {"2007-36", kWeekSize, 446.0, 2739.0, 748.0, 0xE6E51002},
      {"2007-37", kWeekSize, 506.0, 3639.0, 848.0, 0xE6E51003},
      {"2007-38", kWeekSize, 447.0, 2739.0, 682.0, 0xE6E51004},
      {"2007-39", kWeekSize, 489.0, 3533.0, 741.0, 0xE6E51005},
      {"2007-50", kWeekSize, 660.0, 2341.0, 1046.0, 0xE6E51006},
      {"2007-51", kWeekSize, 478.0, 1716.0, 510.0, 0xE6E51007},
      {"2007-52", kWeekSize, 443.0, 1685.0, 582.0, 0xE6E51008},
      {"2007-53", kWeekSize, 449.0, 1977.0, 678.0, 0xE6E51009},
      {"2008-01", kWeekSize, 434.0, 1678.0, 317.0, 0xE6E5100A},
      {"2008-02", kWeekSize, 418.0, 1568.0, 547.0, 0xE6E5100B},
      {"2008-03", kWeekSize, 538.0, 1484.0, 1196.0, 0xE6E5100C},
  };
  std::vector<DatasetConfig> registry;
  registry.reserve(std::size(rows));
  for (const Row& r : rows) {
    DatasetConfig c;
    c.name = r.name;
    c.n_probes = r.n;
    c.target_mean = r.mean_less;
    c.target_stddev = r.sigma;
    c.outlier_ratio = derive_rho(r.mean_less, r.mean_with, kProbeTimeout);
    // Floor at ~1/5 of the conditional mean, capped at 120 s.
    c.shift = std::min(120.0, 0.2 * r.mean_less);
    c.seed = r.seed;
    registry.push_back(std::move(c));
  }
  return registry;
}

}  // namespace

const std::vector<DatasetConfig>& all_datasets() {
  static const std::vector<DatasetConfig> registry = build_registry();
  return registry;
}

const DatasetConfig& dataset_by_name(const std::string& name) {
  for (const auto& c : all_datasets()) {
    if (c.name == name) return c;
  }
  throw std::out_of_range("dataset_by_name: unknown dataset '" + name + "'");
}

stats::DistributionPtr calibrated_bulk(const DatasetConfig& config) {
  // Calibrate the log-normal so that, *after shifting*, the moments
  // conditioned below the timeout match the targets: solve on the shifted
  // axis y = x - shift with cut at timeout - shift.
  const double mean_y = config.target_mean - config.shift;
  const double cut_y = kProbeTimeout - config.shift;
  if (!(mean_y > 0.0)) {
    throw std::runtime_error("calibrated_bulk: shift >= target mean");
  }
  const auto fit = stats::calibrate_truncated_lognormal(
      mean_y, config.target_stddev, cut_y);
  if (!fit.converged) {
    throw std::runtime_error("calibrated_bulk: calibration failed for " +
                             config.name);
  }
  return std::make_unique<stats::Shifted>(
      std::make_unique<stats::LogNormal>(fit.mu, fit.sigma), config.shift);
}

double fault_ratio_for(const DatasetConfig& config) {
  const auto bulk = calibrated_bulk(config);
  const double tail_mass = 1.0 - bulk->cdf(kProbeTimeout);
  if (tail_mass >= config.outlier_ratio) return 0.0;
  return (config.outlier_ratio - tail_mass) / (1.0 - tail_mass);
}

Trace make_trace(const DatasetConfig& config) {
  GeneratorConfig gen;
  gen.name = config.name;
  gen.n_probes = config.n_probes;
  gen.fault_ratio = fault_ratio_for(config);
  gen.seed = config.seed;
  const auto bulk = calibrated_bulk(config);
  const Trace raw = generate_probe_campaign(*bulk, gen);
  // Table 1 reports *sample* statistics of the real traces; pin the
  // synthetic sample to them exactly rather than only in expectation. The
  // correction clamps at the dataset's latency floor (the fixed middleware
  // traversal) — EGEE probes are never observed faster than that, and a
  // lower clamp would hand the strategy optimizers an exploitable clump of
  // unrealistically quick jobs.
  return match_sample_moments(raw, config.target_mean, config.target_stddev,
                              /*floor=*/config.shift);
}

Trace make_union_trace() {
  Trace out("2007/08", kProbeTimeout);
  for (const auto& c : all_datasets()) {
    if (c.name == "2006-IX") continue;
    out.append(make_trace(c));
  }
  return out;
}

Trace make_trace_by_name(const std::string& name) {
  if (name == "2007/08") return make_union_trace();
  return make_trace(dataset_by_name(name));
}

std::vector<std::string> all_dataset_names_with_union() {
  std::vector<std::string> names;
  names.reserve(all_datasets().size() + 1);
  bool union_inserted = false;
  for (const auto& c : all_datasets()) {
    names.push_back(c.name);
    if (!union_inserted && c.name == "2006-IX") {
      names.emplace_back("2007/08");
      union_inserted = true;
    }
  }
  return names;
}

}  // namespace gridsub::traces
