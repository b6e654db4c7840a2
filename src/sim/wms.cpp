#include "sim/wms.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gridsub::sim {

WorkloadManager::WorkloadManager(Simulator& sim,
                                 std::vector<ComputingElement*> ces,
                                 const WmsConfig& config, stats::Rng rng,
                                 GridMetrics* metrics)
    : sim_(sim),
      ces_(std::move(ces)),
      config_(config),
      network_(config.network),
      rng_(rng),
      metrics_(metrics) {
  if (ces_.empty()) {
    throw std::invalid_argument("WorkloadManager: no computing elements");
  }
  if (!(config_.info_refresh_period > 0.0)) {
    throw std::invalid_argument("WorkloadManager: info_refresh_period <= 0");
  }
  load_snapshot_.resize(ces_.size(), 0.0);
  ties_.reserve(ces_.size());
  refresh_load_snapshot();
}

void WorkloadManager::refresh_load_snapshot() {
  for (std::size_t i = 0; i < ces_.size(); ++i) {
    load_snapshot_[i] = ces_[i]->load();
  }
  // The least-loaded CEs change only here, so each dispatch draws from
  // this set instead of scanning the loads again.
  const double best =
      *std::min_element(load_snapshot_.begin(), load_snapshot_.end());
  ties_.clear();
  for (std::size_t i = 0; i < ces_.size(); ++i) {
    if (load_snapshot_[i] <= best) ties_.push_back(i);
  }
  sim_.schedule_daemon_in(config_.info_refresh_period,
                          [this]() { refresh_load_snapshot(); });
}

std::size_t WorkloadManager::choose_element() {
  switch (config_.dispatch) {
    case WmsConfig::Dispatch::kUniformRandom:
      return static_cast<std::size_t>(rng_.uniform_int(ces_.size()));
    case WmsConfig::Dispatch::kWeightedRandom: {
      // Weight ~ 1 / (1 + stale load).
      double total = 0.0;
      for (const double l : load_snapshot_) total += 1.0 / (1.0 + l);
      double u = rng_.uniform(0.0, total);
      for (std::size_t i = 0; i < ces_.size(); ++i) {
        u -= 1.0 / (1.0 + load_snapshot_[i]);
        if (u <= 0.0) return i;
      }
      return ces_.size() - 1;
    }
    case WmsConfig::Dispatch::kLeastLoaded:
    default: {
      // Ties broken randomly so one CE does not absorb all bursts.
      return ties_[static_cast<std::size_t>(rng_.uniform_int(ties_.size()))];
    }
  }
}

WorkloadManager::TicketId WorkloadManager::submit(double runtime,
                                                  StartCallback on_start) {
  if (!(runtime >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "WorkloadManager::submit: negative or NaN runtime");
  }
  if (metrics_) ++metrics_->jobs_submitted;
  const std::uint32_t index = slots_.acquire();
  InFlight& job = slots_[index];
  const TicketId ticket = slots_.handle(index);
  if (config_.fault_prob > 0.0 && rng_.bernoulli(config_.fault_prob)) {
    // Lost in the submission chain; only the client timeout notices.
    job.where = InFlight::Where::kLost;
    if (metrics_) ++metrics_->jobs_faulted;
    return ticket;
  }
  const double matchmaking = network_.sample_path_delay(rng_);
  if (metrics_) metrics_->total_matchmaking += matchmaking;
  job.where = InFlight::Where::kMatchmaking;
  job.on_start = std::move(on_start);
  job.handle = sim_.schedule_in(matchmaking, [this, ticket, runtime] {
    dispatch_job(ticket, runtime);
  });
  return ticket;
}

void WorkloadManager::dispatch_job(TicketId ticket, double runtime) {
  const std::uint32_t index = slots_.find(ticket);
  if (index == kNilIndex) return;  // canceled during matchmaking
  const std::size_t ce_index = choose_element();
  slots_[index].where = InFlight::Where::kComputingElement;
  slots_[index].ce_index = static_cast<std::uint32_t>(ce_index);
  // The CE may start the job synchronously (free slot), which frees this
  // ticket's slot and runs the client's callback, which may submit a job
  // that reuses the slot. So the handle is written back only if the
  // ticket is still live.
  const auto handle = ces_[ce_index]->submit(
      runtime, [this, ticket] { start_job(ticket); });
  if (slots_.find(ticket) == index) slots_[index].handle = handle;
}

void WorkloadManager::start_job(TicketId ticket) {
  const std::uint32_t index = slots_.find(ticket);
  if (index == kNilIndex) return;  // a canceled ticket's job never starts
  // Started: the ticket is finished from the WMS point of view. Free the
  // slot before the callback runs, since it may submit or cancel jobs.
  StartCallback on_start = std::move(slots_[index].on_start);
  release_slot(index);
  if (on_start) on_start();
}

bool WorkloadManager::cancel(TicketId ticket) {
  const std::uint32_t index = slots_.find(ticket);
  if (index == kNilIndex) return false;
  if (metrics_) ++metrics_->jobs_canceled;
  const InFlight::Where where = slots_[index].where;
  const std::uint32_t ce_index = slots_[index].ce_index;
  const std::uint64_t handle = slots_[index].handle;
  release_slot(index);
  switch (where) {
    case InFlight::Where::kMatchmaking:
      sim_.cancel(handle);
      break;
    case InFlight::Where::kComputingElement:
      ces_[ce_index]->cancel(handle);
      break;
    case InFlight::Where::kLost:
      break;
  }
  return true;
}

void WorkloadManager::release_slot(std::uint32_t index) {
  slots_[index].on_start = nullptr;  // drop what the callback captured
  slots_.release(index);  // tickets naming the old tenant go stale
}

}  // namespace gridsub::sim
