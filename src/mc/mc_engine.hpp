#pragma once

// Monte Carlo execution of the three submission strategies.
//
// Every analytic quantity in core/ (E_J, sigma_J, N∥, expected submission
// counts) is re-derived here by directly simulating the client-side
// protocol against latency samples drawn from the same model. The test
// suite requires agreement within Monte Carlo error; the benches use the
// engine for validation tables and for quantities with no closed form.
//
// Replications are partitioned into fixed-size blocks, each with an RNG
// stream derived from (seed, block index), so results are bit-identical
// regardless of the worker-thread count.

#include <cstdint>

#include "model/latency_model.hpp"
#include "parallel/thread_pool.hpp"

namespace gridsub::mc {

struct McOptions {
  std::size_t replications = 100000;
  std::uint64_t seed = 0xC0FFEE;
  /// Defaults to the shared pool; pass a pool to control thread count.
  par::ThreadPool* pool = nullptr;
};

struct McResult {
  std::size_t replications = 0;
  double mean_latency = 0.0;        ///< empirical E_J
  double std_latency = 0.0;         ///< empirical sigma_J
  double mean_submissions = 0.0;    ///< jobs submitted per original task
  double mean_parallel_ratio = 0.0; ///< E[N∥(J)] (expectation of the ratio)
  double aggregate_parallel = 0.0;  ///< Σ job-seconds / Σ J (ratio of sums;
                                    ///< the fleet-level load measure)
};

/// Multiple submission (§5): b parallel copies, collection timeout t_inf.
/// At b = 1 this is single resubmission (§4): one draw per round.
McResult simulate_multiple(const model::LatencyModel& m, int b, double t_inf,
                           const McOptions& options = {});

/// Delayed resubmission (§6): period t0, cancellation timeout t_inf.
McResult simulate_delayed(const model::LatencyModel& m, double t0,
                          double t_inf, const McOptions& options = {});

}  // namespace gridsub::mc
