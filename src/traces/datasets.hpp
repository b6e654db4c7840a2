#pragma once

// Synthetic counterparts of the paper's 12 EGEE trace sets (plus the
// 2007/08 union).
//
// We do not have the original biomed-VO probe logs, so each week is
// re-created as a shifted log-normal latency bulk plus a fault mass,
// calibrated so that the three statistics the paper reports in Table 1 are
// matched on *expectation*:
//   - mean of latencies below the 10,000 s outlier timeout ("mean < 10^5"),
//   - their standard deviation (sigma_R),
//   - the outlier ratio rho, recovered from the paper's censored-mean
//     column: rho = (mean_with - mean_less) / (10^4 - mean_less).
// The models under study consume only the defective CDF F̃_R, so matching
// conditional moments + outlier mass at the same truncation reproduces the
// regime the paper's evaluation explores. Sampling is deterministic per
// dataset seed.

#include <string>
#include <vector>

#include "stats/distribution.hpp"
#include "traces/trace.hpp"

namespace gridsub::traces {

/// Calibration targets and generation parameters of one synthetic week.
struct DatasetConfig {
  std::string name;        ///< paper's dataset label, e.g. "2007-52"
  std::size_t n_probes;    ///< campaign size (paper total: 10,893)
  double target_mean;      ///< Table 1 "mean < 10^5" (seconds)
  double target_stddev;    ///< Table 1 sigma_R (seconds)
  double outlier_ratio;    ///< rho derived from Table 1 (see above)
  double shift;            ///< hard latency floor (middleware traversal)
  std::uint64_t seed;      ///< deterministic generation seed
};

/// The 12 individual trace sets of the paper, in its Table 1 order
/// (2006-IX, then 2007-36..39, 2007-50..53, 2008-01..03). The 2007/08
/// union is not in this list; build it with make_union_trace().
const std::vector<DatasetConfig>& all_datasets();

/// Looks up a config by paper label (throws std::out_of_range if unknown).
const DatasetConfig& dataset_by_name(const std::string& name);

/// The calibrated latency bulk distribution for a config: a shifted
/// log-normal whose moments, conditioned below the timeout, match the
/// targets. Throws std::runtime_error if calibration fails.
stats::DistributionPtr calibrated_bulk(const DatasetConfig& config);

/// Fault probability to inject at generation so that the *total* outlier
/// mass (faults + bulk tail above the timeout) equals config.outlier_ratio.
double fault_ratio_for(const DatasetConfig& config);

/// Generates the synthetic trace for a config (deterministic in the seed).
Trace make_trace(const DatasetConfig& config);

/// Concatenation of the 11 weekly 2007/2008 traces — the paper's "2007/08"
/// row (2006-IX is excluded, as in the paper).
Trace make_union_trace();

/// Convenience: make_trace(dataset_by_name(name)), with "2007/08"
/// resolving to make_union_trace().
Trace make_trace_by_name(const std::string& name);

/// All paper dataset labels including the "2007/08" union, Table 1 order.
std::vector<std::string> all_dataset_names_with_union();

}  // namespace gridsub::traces
