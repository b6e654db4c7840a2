#pragma once

// Workload Management System: the EGEE meta-scheduler.
//
// Receives jobs from user interfaces, spends a match-making delay (network
// hops + ranking), then dispatches to a computing element. Crucially, the
// ranking uses *stale* load information — the WMS only refreshes its view
// of CE queues every `info_refresh_period` seconds, reproducing the paper's
// observation that meta-schedulers act on partial information and local
// policies interfere with global objectives.
//
// Tickets live in the slot map of sim/slot_map.hpp: a TicketId is a slot
// handle to an InFlight record, so submit, cancel and start never hash
// and never allocate beyond amortized slot-vector growth, and a ticket is
// never 0. A slot is freed when its job starts or is canceled: a stale or
// recycled ticket fails the generation check, and cancel() on it returns
// false without moving a counter. The client's start callback is moved
// into the ticket's slot once, at submit, so a slot is 56 bytes: the
// 16-byte head (generation, free link, CE index, state), the matchmaking
// or CE handle, and the 32-byte SmallFn. The matchmaking event and the
// CE job carry only (this, ticket[, runtime]); at start the WMS moves the
// callback out, frees the slot, then calls it. A job lost in the
// submission chain (or silently dropped by its CE) keeps its slot until
// the client cancels it, since only the client's timeout notices the
// loss.

#include <cstdint>
#include <vector>

#include "sim/computing_element.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_map.hpp"
#include "sim/small_fn.hpp"
#include "stats/rng.hpp"

namespace gridsub::sim {

struct WmsConfig {
  NetworkConfig network;             ///< matchmaking-path delays
  double info_refresh_period = 120;  ///< staleness of CE load info (s)
  double fault_prob = 0.01;          ///< jobs lost inside the WMS chain
  enum class Dispatch {
    kLeastLoaded,     ///< rank by (stale) load, pick the minimum
    kUniformRandom,   ///< ignore load entirely
    kWeightedRandom   ///< sample inversely proportional to (stale) load
  };
  Dispatch dispatch = Dispatch::kLeastLoaded;
};

class WorkloadManager {
 public:
  using TicketId = SlotHandle;
  using StartCallback = SmallFn;

  /// `ces` must stay alive for the WMS lifetime; metrics may be nullptr.
  WorkloadManager(Simulator& sim, std::vector<ComputingElement*> ces,
                  const WmsConfig& config, stats::Rng rng,
                  GridMetrics* metrics = nullptr);

  WorkloadManager(const WorkloadManager&) = delete;
  WorkloadManager& operator=(const WorkloadManager&) = delete;

  /// Accepts a job; on_start fires when it begins executing on a worker.
  /// `runtime` must be >= 0 (+inf is allowed); a negative or NaN runtime
  /// throws std::invalid_argument before any counter moves or RNG draw.
  TicketId submit(double runtime, StartCallback on_start);

  /// Cancels wherever the job currently is (matchmaking or CE). Returns
  /// false once the job has started or been canceled, including when the
  /// ticket's slot has since been reused (the generation check rejects
  /// the stale ticket).
  bool cancel(TicketId ticket);

  [[nodiscard]] const std::vector<ComputingElement*>& elements() const {
    return ces_;
  }

 private:
  /// One ticket slot; the slot map chains free slots through `next_free`.
  struct InFlight {
    enum class Where : std::uint8_t {
      kMatchmaking,
      kComputingElement,
      kLost
    };
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilIndex;
    std::uint32_t ce_index = 0;  ///< valid at a CE
    Where where = Where::kMatchmaking;
    std::uint64_t handle = 0;    ///< matchmaking EventId or CE JobHandle
    StartCallback on_start;      ///< held until the job starts
  };
  static_assert(sizeof(InFlight) == 56);

  void refresh_load_snapshot();
  [[nodiscard]] std::size_t choose_element();
  void dispatch_job(TicketId ticket, double runtime);
  void start_job(TicketId ticket);
  void release_slot(std::uint32_t index);

  Simulator& sim_;
  std::vector<ComputingElement*> ces_;
  WmsConfig config_;
  NetworkModel network_;
  stats::Rng rng_;
  GridMetrics* metrics_;

  std::vector<double> load_snapshot_;
  std::vector<std::size_t> ties_;  ///< least-loaded CEs of the snapshot
  SlotMap<InFlight, &InFlight::next_free> slots_;
};

}  // namespace gridsub::sim
