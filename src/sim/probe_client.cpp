#include "sim/probe_client.hpp"

#include <memory>
#include <stdexcept>

namespace gridsub::sim {

/// Run time (s) of one probe: /bin/hostname is all but instantaneous.
constexpr double kProbeRuntime = 1.0;

ProbeClient::ProbeClient(GridSimulation& grid,
                         const ProbeCampaignConfig& config,
                         std::string trace_name)
    : grid_(grid),
      config_(config),
      trace_(std::move(trace_name), config.timeout) {
  if (config.n_probes == 0 || config.concurrent == 0) {
    throw std::invalid_argument("ProbeClient: empty campaign");
  }
}

void ProbeClient::start() {
  const std::size_t initial =
      std::min(config_.concurrent, config_.n_probes);
  for (std::size_t i = 0; i < initial; ++i) submit_probe();
}

void ProbeClient::submit_probe() {
  if (submitted_ >= config_.n_probes) return;
  ++submitted_;
  auto& sim = grid_.simulator();

  // Shared one-shot state: whichever fires first (start vs timeout) wins.
  // The submit time lives here, not in the captures, so each callback is
  // (this, state) and stays in SmallFn's inline buffer.
  struct ProbeState {
    bool settled = false;
    SimTime submit_time = 0.0;
    WorkloadManager::TicketId ticket = 0;
    EventId timeout_event = 0;
  };
  auto state = std::make_shared<ProbeState>();
  state->submit_time = sim.now();

  state->ticket = grid_.wms().submit(kProbeRuntime, [this, state]() {
    if (state->settled) return;
    state->settled = true;
    grid_.simulator().cancel(state->timeout_event);
    trace_.add_completed(state->submit_time,
                         grid_.simulator().now() - state->submit_time);
    submit_probe();  // keep the in-flight count constant
  });
  state->timeout_event = sim.schedule_in(config_.timeout, [this, state]() {
    if (state->settled) return;
    state->settled = true;
    grid_.wms().cancel(state->ticket);
    trace_.add_outlier(state->submit_time);
    submit_probe();
  });
}

}  // namespace gridsub::sim
