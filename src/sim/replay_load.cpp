#include "sim/replay_load.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gridsub::sim {

ReplayLoad::ReplayLoad(Simulator& sim, WorkloadManager& wms,
                       const traces::Workload& workload,
                       const ReplayLoadConfig& config, stats::Rng rng)
    : sim_(sim), wms_(wms), workload_(&workload), config_(config), rng_(rng) {
  if (!(config.time_scale > 0.0)) {
    throw std::invalid_argument("ReplayLoad: time_scale must be > 0");
  }
  if (!(config.load_multiplier >= 0.0)) {
    throw std::invalid_argument("ReplayLoad: load_multiplier must be >= 0");
  }
  if (workload.empty()) {
    throw std::invalid_argument("ReplayLoad: empty workload");
  }
  const auto jobs = workload.jobs();
  if (!std::is_sorted(jobs.begin(), jobs.end(),
                      [](const traces::WorkloadJob& a,
                         const traces::WorkloadJob& b) {
                        return a.arrival < b.arrival;
                      })) {
    throw std::invalid_argument(
        "ReplayLoad: workload not sorted by arrival; call "
        "Workload::sort_by_arrival() first");
  }
  start_time_ = sim_.now();
  // Splice looped passes with one mean inter-arrival gap so the seam does
  // not create a double arrival at the same instant. A degenerate workload
  // (every arrival at the same time, duration 0) gets a 1 s seam — without
  // it, looping would reschedule forever at one sim instant and run()
  // would never return.
  const double duration = workload.duration();
  loop_gap_ = duration > 0.0
                  ? duration / static_cast<double>(workload.size())
                  : 1.0;
  schedule_next();
}

void ReplayLoad::stop() { stopped_ = true; }

void ReplayLoad::schedule_next() {
  if (stopped_) return;
  if (next_index_ >= workload_->size()) {
    if (!config_.loop) {
      exhausted_ = true;
      return;
    }
    next_index_ = 0;
    loop_offset_ += workload_->duration() + loop_gap_;
  }
  const auto& job = workload_->jobs()[next_index_];
  const double at =
      start_time_ + (loop_offset_ + job.arrival) / config_.time_scale;
  sim_.schedule_at(std::max(at, sim_.now()), [this]() {
    if (stopped_) return;
    emit_current();
    ++next_index_;
    schedule_next();
  });
}

void ReplayLoad::emit_current() {
  const auto& job = workload_->jobs()[next_index_];
  ++consumed_;
  // Expected copies == load_multiplier: always the integer part, plus one
  // more with the fractional probability (seed-deterministic).
  const double copies_f = config_.load_multiplier;
  auto copies = static_cast<std::uint64_t>(std::floor(copies_f));
  const double frac = copies_f - std::floor(copies_f);
  if (frac > 0.0 && rng_.bernoulli(frac)) ++copies;
  for (std::uint64_t c = 0; c < copies; ++c) {
    wms_.submit(job.runtime, nullptr);
    ++emitted_;
  }
}

}  // namespace gridsub::sim
