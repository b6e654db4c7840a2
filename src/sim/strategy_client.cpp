#include "sim/strategy_client.hpp"

#include <algorithm>
#include <stdexcept>

namespace gridsub::sim {

StrategyClient::StrategyClient(GridSimulation& grid, StrategySpec spec,
                               std::size_t n_tasks, double task_runtime,
                               bool record_outcomes)
    : grid_(grid),
      spec_(spec),
      n_tasks_(n_tasks),
      task_runtime_(task_runtime),
      record_outcomes_(record_outcomes) {
  if (n_tasks == 0) throw std::invalid_argument("StrategyClient: no tasks");
  if (!(spec.t_inf > 0.0)) {
    throw std::invalid_argument("StrategyClient: t_inf <= 0");
  }
  if (spec.kind == core::StrategyKind::kMultipleSubmission && spec.b < 1) {
    throw std::invalid_argument("StrategyClient: b < 1");
  }
  if (spec.kind == core::StrategyKind::kDelayedResubmission &&
      !(spec.t0 > 0.0 && spec.t0 < spec.t_inf &&
        spec.t_inf <= 2.0 * spec.t0 * (1.0 + 1e-9))) {
    throw std::invalid_argument(
        "StrategyClient: delayed requires 0 < t0 < t_inf <= 2*t0");
  }
  if (spec.kind == core::StrategyKind::kSingleResubmission) spec_.b = 1;
  if (record_outcomes_) outcomes_.reserve(n_tasks);
}

void StrategyClient::start() { start_task(); }

void StrategyClient::start_task() {
  if (completed_ >= n_tasks_) return;
  ++round_;  // any straggler callbacks from the previous task go stale
  task_start_ = grid_.simulator().now();
  submissions_ = 0;
  next_index_ = 0;
  live_.clear();
  switch (spec_.kind) {
    case core::StrategyKind::kSingleResubmission:
    case core::StrategyKind::kMultipleSubmission:
      begin_multiple_round();
      break;
    case core::StrategyKind::kDelayedResubmission:
      delayed_submit_copy();
      break;
  }
}

void StrategyClient::finish_task(double latency) {
  ++completed_;
  latency_acc_.add(latency);
  submissions_acc_.add(submissions_);
  if (record_outcomes_) outcomes_.push_back({latency, submissions_});
  start_task();
}

void StrategyClient::begin_multiple_round() {
  ++round_;
  const std::uint64_t round = round_;
  tickets_.clear();
  auto& sim = grid_.simulator();
  for (int i = 0; i < spec_.b; ++i) {
    ++submissions_;
    const auto ticket =
        grid_.wms().submit(task_runtime_, [this, round, i]() {
          if (round != round_) return;
          // Settle *before* cancelling: freeing a sibling's queue slot can
          // synchronously start another of our copies, which must see the
          // round as over.
          ++round_;
          grid_.simulator().cancel(timeout_event_);
          for (int j = 0; j < static_cast<int>(tickets_.size()); ++j) {
            if (j != i) grid_.wms().cancel(tickets_[j]);
          }
          finish_task(grid_.simulator().now() - task_start_);
        });
    tickets_.push_back(ticket);
  }
  timeout_event_ = sim.schedule_in(spec_.t_inf, [this, round]() {
    if (round != round_) return;
    ++round_;  // see above: cancels below may reentrantly start our copies
    for (const auto t : tickets_) grid_.wms().cancel(t);
    begin_multiple_round();  // resubmit collection
  });
}

/// Submits delayed copy `k` (at time task_start + k*t0) and schedules copy
/// k+1 one period later; the chain runs until some copy starts, which
/// settles the task and cancels everything outstanding.
void StrategyClient::delayed_submit_copy() {
  const std::uint64_t round = round_;
  auto& sim = grid_.simulator();
  const int k = next_index_++;
  ++submissions_;
  const auto ticket =
      grid_.wms().submit(task_runtime_, [this, round, k]() {
        if (round != round_) return;
        ++round_;  // settled (and cancels below may reenter us)
        auto& s = grid_.simulator();
        s.cancel(next_submit_event_);
        for (const DelayedCopy& copy : live_) {
          s.cancel(copy.timeout_event);
          if (copy.index != k) grid_.wms().cancel(copy.ticket);
        }
        live_.clear();
        finish_task(s.now() - task_start_);
      });
  const EventId timeout = sim.schedule_in(spec_.t_inf, [this, round, k]() {
    if (round != round_) return;
    const auto it = std::find_if(
        live_.begin(), live_.end(),
        [k](const DelayedCopy& copy) { return copy.index == k; });
    if (it == live_.end()) return;
    const auto timed_out_ticket = it->ticket;
    grid_.wms().cancel(timed_out_ticket);
    // The cancel can reentrantly start a sibling copy and settle the
    // task, clearing live_; re-check before touching the iterator.
    if (round != round_) return;
    live_.erase(std::find_if(
        live_.begin(), live_.end(),
        [k](const DelayedCopy& copy) { return copy.index == k; }));
  });
  live_.push_back({k, ticket, timeout});
  next_submit_event_ = sim.schedule_at(
      task_start_ + static_cast<double>(next_index_) * spec_.t0,
      [this, round]() {
        if (round != round_) return;
        delayed_submit_copy();
      });
}

double StrategyClient::mean_latency() const {
  if (completed_ == 0) return 0.0;
  return latency_acc_.value() / static_cast<double>(completed_);
}

double StrategyClient::mean_submissions() const {
  if (completed_ == 0) return 0.0;
  return submissions_acc_.value() / static_cast<double>(completed_);
}

}  // namespace gridsub::sim
