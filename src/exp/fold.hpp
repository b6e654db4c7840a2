#pragma once

// MomentFold — the per-metric accumulator behind CampaignResult's
// aggregates — and the thin sink adapter perfbench still calls.
//
// The aggregates are bit-stable because every group folds its
// replications through MomentFold in ascending flat order: Neumaier
// compensation and Welford's update are deterministic for a fixed
// addition order, and the campaign runner fixes that order regardless of
// thread count.

#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/campaign.hpp"
#include "numerics/kahan.hpp"

namespace gridsub::exp {

/// Moments of one metric in one pass: compensated mean, stderr of the
/// mean (Welford), and running max. Deterministic for a fixed add()
/// order.
class MomentFold {
 public:
  void add(double x);

  /// Kahan-compensated mean (0 before the first add).
  [[nodiscard]] double mean() const;
  /// Sample stderr of the mean, sqrt(M2 / (n-1) / n); 0 for n < 2.
  [[nodiscard]] double sem() const;
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  numerics::KahanAccumulator sum_;
  double welford_mean_ = 0.0;
  double m2_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
};

// perfbench/workload_crossweek.cpp was written against a sink API:
// run_with_sink(axes, evaluate, FoldSink&), FoldSink::take() and
// CampaignSummary::mean. The three names below keep it compiling on top
// of CampaignRunner::run. They stay only until a benchmark change ports
// perfbench to run(); nothing else may use them.

using CampaignSummary = CampaignResult;

/// Holds the result of the run_with_sink() call that filled it.
class FoldSink {
 public:
  /// The campaign result; call once, after the run.
  [[nodiscard]] CampaignResult take() {
    if (!result_) throw std::logic_error("FoldSink::take before the run");
    return std::move(*result_);
  }

 private:
  friend class CampaignRunner;
  std::optional<CampaignResult> result_;
};

inline void CampaignRunner::run_with_sink(const CampaignAxes& axes,
                                          const CellEvaluator& evaluate,
                                          FoldSink& sink) const {
  sink.result_.emplace(run(axes, evaluate));
}

}  // namespace gridsub::exp
