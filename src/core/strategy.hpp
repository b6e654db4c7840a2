#pragma once

// Shared types of the submission-strategy models (paper §§4-7).

#include <string_view>

namespace gridsub::core {

/// User-side performance of a strategy at given parameters.
struct StrategyMetrics {
  double expectation = 0.0;    ///< E_J: expected total latency (s)
  double std_deviation = 0.0;  ///< sigma_J (s)
};

/// Optimum of a timeout-parameterized strategy (single/multiple).
struct TimeoutOptimum {
  double t_inf = 0.0;  ///< optimal timeout (s)
  StrategyMetrics metrics;
};

/// Optimum of the delayed-resubmission strategy.
struct DelayedOptimum {
  double t0 = 0.0;     ///< resubmission period (s)
  double t_inf = 0.0;  ///< cancellation timeout (s)
  StrategyMetrics metrics;
  double n_parallel = 1.0;  ///< N∥ evaluated at E_J (paper's §6.1 measure)
};

/// Relative slack by which the tuning scans shrink a lower bound on E_J
/// before they skip the points it rules out. Assembling E_J from the bound
/// costs a few roundings; 1e-12 covers them a thousand times over, so a
/// skipped point can never have beaten the running best.
inline constexpr double kFloorSlack = 1e-12;

/// Strategy families studied by the paper.
enum class StrategyKind {
  kSingleResubmission,  ///< §4: timeout + resubmit
  kMultipleSubmission,  ///< §5: b parallel copies
  kDelayedResubmission  ///< §6: staggered copy without cancellation
};

[[nodiscard]] constexpr std::string_view to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kSingleResubmission:
      return "single-resubmission";
    case StrategyKind::kMultipleSubmission:
      return "multiple-submission";
    case StrategyKind::kDelayedResubmission:
      return "delayed-resubmission";
  }
  return "unknown";
}

/// Inverse of to_string: true and sets `out` on a known name, false
/// otherwise (callers own the error policy — the advisor recovery loader
/// treats an unknown name as a corrupt dump).
[[nodiscard]] constexpr bool strategy_kind_from_string(std::string_view name,
                                                      StrategyKind& out) {
  for (const StrategyKind kind :
       {StrategyKind::kSingleResubmission, StrategyKind::kMultipleSubmission,
        StrategyKind::kDelayedResubmission}) {
    if (name == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace gridsub::core
