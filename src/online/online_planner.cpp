#include "online/online_planner.hpp"

#include <stdexcept>
#include <vector>

#include "stats/fit.hpp"
#include "traces/trace.hpp"

namespace gridsub::online {

OnlinePlanner::OnlinePlanner(OnlinePlannerConfig config)
    : config_(config) {
  if (config.window < 2) {
    throw std::invalid_argument("OnlinePlanner: window < 2");
  }
  if (config.min_observations < 2 || config.min_observations > config.window) {
    throw std::invalid_argument(
        "OnlinePlanner: min_observations outside [2, window]");
  }
  if (config.refit_interval == 0) {
    throw std::invalid_argument("OnlinePlanner: refit_interval == 0");
  }
  if (!(config.model_step > 0.0) || !(config.timeout > config.model_step)) {
    throw std::invalid_argument("OnlinePlanner: bad step/timeout");
  }
}

void OnlinePlanner::observe_completed(double latency) {
  if (!(latency >= 0.0) || latency >= config_.timeout) {
    throw std::invalid_argument(
        "OnlinePlanner::observe_completed: latency outside [0, timeout)");
  }
  window_.push_back({latency, true});
  if (window_.size() > config_.window) window_.pop_front();
  ++since_refit_;
  maybe_refit();
}

void OnlinePlanner::observe_outlier() {
  window_.push_back({config_.timeout, false});
  if (window_.size() > config_.window) window_.pop_front();
  ++since_refit_;
  maybe_refit();
}

void OnlinePlanner::maybe_refit() {
  if (window_.size() < config_.min_observations) return;
  if (recommendation_.has_value() && since_refit_ < config_.refit_interval) {
    return;
  }
  refit();
}

void OnlinePlanner::refit() {
  traces::Trace trace("online-window", config_.timeout);
  std::size_t completed = 0;
  for (const Observation& o : window_) {
    if (o.completed) {
      trace.add_completed(0.0, o.latency);
      ++completed;
    } else {
      trace.add_outlier(0.0);
    }
  }
  if (completed < 2) return;  // nothing to fit yet; keep accumulating
  // Rebuild model first, then the planner that references it; the old
  // recommendation is only replaced once the new one exists.
  auto fresh_model = std::make_unique<model::DiscretizedLatencyModel>(
      model::DiscretizedLatencyModel::from_trace(trace,
                                                 config_.model_step));
  auto fresh_planner =
      std::make_unique<core::StrategyPlanner>(*fresh_model);
  recommendation_ = fresh_planner->recommend(config_.planner);
  model_ = std::move(fresh_model);
  planner_ = std::move(fresh_planner);
  since_refit_ = 0;
  ++refits_;
}

const core::Recommendation& OnlinePlanner::current() const {
  if (!recommendation_.has_value()) {
    throw std::logic_error("OnlinePlanner::current: not ready");
  }
  return *recommendation_;
}

const model::DiscretizedLatencyModel& OnlinePlanner::model() const {
  if (!model_) throw std::logic_error("OnlinePlanner::model: not ready");
  return *model_;
}

double OnlinePlanner::window_outlier_ratio() const {
  if (window_.empty()) return 0.0;
  std::size_t outliers = 0;
  for (const Observation& o : window_) {
    if (!o.completed) ++outliers;
  }
  return static_cast<double>(outliers) /
         static_cast<double>(window_.size());
}

double OnlinePlanner::drift_statistic() const {
  const std::size_t half = window_.size() / 2;
  std::vector<double> older, newer;
  older.reserve(half);
  newer.reserve(window_.size() - half);
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const Observation& o = window_[i];
    if (!o.completed) continue;
    (i < half ? older : newer).push_back(o.latency);
  }
  if (older.empty() || newer.empty()) return 0.0;
  return stats::ks_two_sample(older, newer);
}

bool OnlinePlanner::drifted() const {
  return drift_statistic() > kDriftThreshold;
}

}  // namespace gridsub::online
