#pragma once

// Shared fixtures for the gridsub test suite: small, fast latency models
// with known structure, and a lifetime probe for callbacks.

#include <memory>
#include <string>
#include <vector>

#include "model/discretized.hpp"
#include "model/parametric_latency.hpp"
#include "stats/lognormal.hpp"
#include "stats/rng.hpp"
#include "stats/shifted.hpp"
#include "stats/weibull.hpp"
#include "traces/datasets.hpp"
#include "traces/trace.hpp"

namespace gridsub::testutil {

/// Shifted log-normal bulk + faults: the EGEE-like regime at small scale.
inline model::ParametricLatencyModel make_heavy_model(
    double fault_ratio = 0.05, double horizon = 4000.0) {
  auto bulk = std::make_unique<stats::Shifted>(
      std::make_unique<stats::LogNormal>(5.0, 1.0), 60.0);
  return model::ParametricLatencyModel(std::move(bulk), fault_ratio,
                                       horizon);
}

/// Memoryless latency: single resubmission is timeout-indifferent here.
/// Weibull with shape 1 is the exponential law with the given mean.
inline model::ParametricLatencyModel make_exponential_model(
    double mean = 300.0, double fault_ratio = 0.0,
    double horizon = 20000.0) {
  return model::ParametricLatencyModel(
      std::make_unique<stats::Weibull>(1.0, mean), fault_ratio, horizon);
}

inline model::DiscretizedLatencyModel discretize(
    const model::LatencyModel& m, double step = 1.0) {
  return model::DiscretizedLatencyModel(m, step);
}

/// One model of floor_net_models(), labelled for failure messages.
struct NetModel {
  std::string label;
  model::DiscretizedLatencyModel model;
};

/// The models on which the tuning scans' floors are checked against
/// unpruned reference scans: the 13 paper datasets at 5 and 20 s (2006-IX
/// and 2007/08 also at 1 s), then 40 seeded windows of 40-700 consecutive
/// probes of the weekly sets, censored at an advisor key's 4000 s timeout
/// and discretized at 2, 10 or 20 s. Every fifth window is outlier-heavy:
/// 200 probes of which only 2-10 completed. Built once per process.
inline const std::vector<NetModel>& floor_net_models() {
  static const std::vector<NetModel> models = [] {
    std::vector<NetModel> out;
    std::vector<traces::Trace> paper;
    for (const std::string& name : traces::all_dataset_names_with_union()) {
      paper.push_back(traces::make_trace_by_name(name));
      std::vector<double> steps = {5.0, 20.0};
      if (name == "2006-IX" || name == "2007/08") steps.push_back(1.0);
      for (const double step : steps) {
        out.push_back({name + " @" + std::to_string(static_cast<int>(step)),
                       model::DiscretizedLatencyModel::from_trace(
                           paper.back(), step)});
      }
    }
    constexpr double kTimeout = 4000.0;
    stats::Rng rng(20090611);
    for (int w = 0; w < 40; ++w) {
      const auto records = paper[2 + w % 11].records();
      traces::Trace window("window " + std::to_string(w), kTimeout);
      const auto completes = [&](const traces::ProbeRecord& r) {
        return r.status == traces::ProbeStatus::kCompleted &&
               r.latency < kTimeout;
      };
      if (w % 5 == 4) {
        const std::size_t completed = 2 + rng.uniform_int(9);
        for (std::size_t i = rng.uniform_int(records.size());
             window.size() < completed; ++i) {
          const traces::ProbeRecord& r = records[i % records.size()];
          if (completes(r)) window.add_completed(0.0, r.latency);
        }
        while (window.size() < 200) window.add_outlier(0.0);
      } else {
        const std::size_t n = 40 + rng.uniform_int(661);
        const std::size_t start = rng.uniform_int(records.size() - n + 1);
        for (std::size_t i = start; i < start + n; ++i) {
          const traces::ProbeRecord& r = records[i];
          if (completes(r)) {
            window.add_completed(0.0, r.latency);
          } else {
            window.add_outlier(0.0);
          }
        }
      }
      const double step = (w % 3 == 0) ? 2.0 : (w % 3 == 1) ? 10.0 : 20.0;
      out.push_back({window.name() + " @" +
                         std::to_string(static_cast<int>(step)),
                     model::DiscretizedLatencyModel::from_trace(window,
                                                                step)});
    }
    return out;
  }();
  return models;
}

/// Constructions (copies and moves included) and destructions of every
/// CallbackProbe bound to it. Once the callbacks capturing the probes are
/// gone, the two counts match exactly when each copy was released once.
struct ProbeCounts {
  int constructed = 0;
  int destroyed = 0;
};

/// Captured by a callback to count its copies, moves and destructions.
class CallbackProbe {
 public:
  explicit CallbackProbe(ProbeCounts* counts) : counts_(counts) {
    ++counts_->constructed;
  }
  CallbackProbe(const CallbackProbe& other) : counts_(other.counts_) {
    ++counts_->constructed;
  }
  CallbackProbe(CallbackProbe&& other) noexcept : counts_(other.counts_) {
    ++counts_->constructed;
  }
  CallbackProbe& operator=(const CallbackProbe&) = delete;
  CallbackProbe& operator=(CallbackProbe&&) = delete;
  ~CallbackProbe() { ++counts_->destroyed; }

 private:
  ProbeCounts* counts_;
};

}  // namespace gridsub::testutil
