#pragma once

// Shared fixtures for the gridsub test suite: small, fast latency models
// with known structure, and a lifetime probe for callbacks.

#include <memory>

#include "model/discretized.hpp"
#include "model/parametric_latency.hpp"
#include "stats/lognormal.hpp"
#include "stats/shifted.hpp"
#include "stats/weibull.hpp"

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
