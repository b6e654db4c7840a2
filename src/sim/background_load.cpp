#include "sim/background_load.hpp"

#include <stdexcept>

#include "stats/lognormal.hpp"

namespace gridsub::sim {

BackgroundLoad::BackgroundLoad(Simulator& sim, WorkloadManager& wms,
                               const BackgroundLoadConfig& config,
                               stats::Rng rng)
    : sim_(sim), wms_(wms), config_(config), rng_(rng) {
  if (!(config.arrival_rate >= 0.0)) {
    throw std::invalid_argument("BackgroundLoad: negative arrival rate");
  }
  // The factory validates runtime_mean > 0 and runtime_sigma_log >= 0 —
  // log(mean <= 0) would otherwise silently poison mu (NaN/-inf) and every
  // runtime sample drawn after it.
  runtime_dist_ = std::make_unique<stats::LogNormal>(
      stats::LogNormal::from_mean_and_sigma_log(config.runtime_mean,
                                                config.runtime_sigma_log));
  if (config.arrival_rate > 0.0) schedule_next();
}

void BackgroundLoad::schedule_next() {
  const double gap = rng_.exponential(config_.arrival_rate);
  sim_.schedule_in(gap, [this]() {
    ++emitted_;
    wms_.submit(runtime_dist_->sample(rng_), nullptr);
    schedule_next();
  });
}

}  // namespace gridsub::sim
