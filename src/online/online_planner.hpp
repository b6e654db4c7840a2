#pragma once

// Online strategy estimation (paper §7.2 "practical implementation").
//
// The paper tunes (t0, t∞) a posteriori on full weekly traces and shows
// (Table 6) that parameters estimated on the *previous* week transfer with
// at most a few percent of Δcost penalty. This component closes the loop
// the conclusion asks for — "systematic implementation of our methods in
// real applications": it consumes probe observations as they complete,
// maintains a sliding window, periodically re-estimates the latency model
// and the recommended strategy, and flags workload drift (two-sample KS
// between the window halves) so a client can distrust stale parameters.

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>

#include "core/planner.hpp"
#include "model/discretized.hpp"

namespace gridsub::online {

struct OnlinePlannerConfig {
  std::size_t window = 600;          ///< observations kept (FIFO)
  std::size_t min_observations = 100;  ///< before the first fit
  std::size_t refit_interval = 50;   ///< observations between re-fits
  double model_step = 2.0;           ///< discretization of the fitted model
  double timeout = 10000.0;          ///< probe outlier threshold (paper)
  core::PlannerOptions planner;      ///< objective for recommendations
};

/// Two-sample KS distance between window halves above which the workload
/// is considered drifting. The two-sample KS noise floor at half-window n
/// is ~1.36*sqrt(2/n) (0.14 for n = 200), so 0.15 stays quiet within a
/// stationary week and trips on regime changes (~0.9 on the synthetic
/// week pairs; see the online tests).
inline constexpr double kDriftThreshold = 0.15;

class OnlinePlanner {
 public:
  explicit OnlinePlanner(OnlinePlannerConfig config = {});

  OnlinePlanner(const OnlinePlanner&) = delete;
  OnlinePlanner& operator=(const OnlinePlanner&) = delete;

  // Movable so keyed registries (serve::AdvisorService) can hold planners
  // by value through container moves/rehashes without resetting fit
  // state. The planner_ holds a reference to *model_ (not into this
  // object), so the defaulted member-wise move keeps it valid.
  OnlinePlanner(OnlinePlanner&&) = default;
  OnlinePlanner& operator=(OnlinePlanner&&) = default;

  /// Feeds one completed probe latency (seconds, in [0, timeout)).
  void observe_completed(double latency);
  /// Feeds one outlier/fault (probe canceled at the timeout).
  void observe_outlier();

  /// True once a model and recommendation are available.
  [[nodiscard]] bool ready() const { return recommendation_.has_value(); }

  /// Latest recommendation; throws std::logic_error before ready().
  [[nodiscard]] const core::Recommendation& current() const;

  /// Latest fitted model; throws std::logic_error before ready().
  [[nodiscard]] const model::DiscretizedLatencyModel& model() const;

  /// Number of model re-fits performed so far.
  [[nodiscard]] std::size_t refits() const { return refits_; }

  /// Observations currently in the window.
  [[nodiscard]] std::size_t window_size() const { return window_.size(); }

  /// Outlier fraction of the current window.
  [[nodiscard]] double window_outlier_ratio() const;

  /// Two-sample KS distance between the completed latencies of the older
  /// and newer halves of the window (0 if either half is empty).
  [[nodiscard]] double drift_statistic() const;

  /// drift_statistic() > kDriftThreshold.
  [[nodiscard]] bool drifted() const;

 private:
  struct Observation {
    double latency;  ///< meaningful only when completed
    bool completed;
  };

  void maybe_refit();
  void refit();

  OnlinePlannerConfig config_;
  std::deque<Observation> window_;
  std::size_t since_refit_ = 0;
  std::size_t refits_ = 0;
  std::unique_ptr<model::DiscretizedLatencyModel> model_;
  std::unique_ptr<core::StrategyPlanner> planner_;
  std::optional<core::Recommendation> recommendation_;
};

}  // namespace gridsub::online
