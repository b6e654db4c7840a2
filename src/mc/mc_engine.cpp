#include "mc/mc_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/thread_annotations.hpp"
#include "numerics/kahan.hpp"
#include "parallel/parallel_for.hpp"

namespace gridsub::mc {

namespace {

constexpr std::size_t kBlockSize = 4096;

/// Safety valve on resubmission rounds per replication.
constexpr std::size_t kMaxRounds = 1000000;

/// Per-replication outcome.
struct RunOutcome {
  double total_latency = 0.0;  // J
  double job_seconds = 0.0;    // integral of in-flight copies over [0, J]
  double submissions = 0.0;
};

// Each block accumulates into a worker-local BlockSums on the worker's
// stack and writes the finished block back to the shared vector exactly
// once, so the per-replication adds never touch shared cache lines. The
// alignment keeps even those single write-backs from false-sharing with a
// neighbouring block on another core. GCC flags any use of the constant as
// tuning-dependent (-Winterference-size); that is fine here — padding is an
// optimization, not ABI, so pin the build-time value.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
#ifdef __cpp_lib_hardware_interference_size
constexpr std::size_t kCacheLine = std::hardware_destructive_interference_size;
#else
constexpr std::size_t kCacheLine = 64;
#endif
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Per-block accumulators (combined deterministically in block order).
struct alignas(kCacheLine) BlockSums {
  numerics::KahanAccumulator j, j2, job_seconds, submissions, ratio;
  std::size_t count = 0;

  void add(const RunOutcome& r) {
    j.add(r.total_latency);
    j2.add(r.total_latency * r.total_latency);
    job_seconds.add(r.job_seconds);
    submissions.add(r.submissions);
    ratio.add(r.total_latency > 0.0 ? r.job_seconds / r.total_latency : 1.0);
    ++count;
  }
};

/// The shared per-block result table workers write finished blocks back
/// to. Distinct blocks land in distinct slots, so the writes are already
/// disjoint; the mutex exists to make the lock discipline checkable
/// (GRIDSUB_GUARDED_BY) rather than implied — at one acquisition per
/// kBlockSize replications its cost is unmeasurable. take() is called
/// once, after the parallel_for join.
class BlockBoard {
 public:
  explicit BlockBoard(std::size_t n_blocks) : sums_(n_blocks) {}

  void store(std::size_t block, const BlockSums& sums)
      GRIDSUB_EXCLUDES(mu_) {
    const core::MutexLock lock(mu_);
    sums_[block] = sums;
  }

  [[nodiscard]] std::vector<BlockSums> take() GRIDSUB_EXCLUDES(mu_) {
    const core::MutexLock lock(mu_);
    return std::move(sums_);
  }

 private:
  core::Mutex mu_;
  std::vector<BlockSums> sums_ GRIDSUB_GUARDED_BY(mu_);
};

template <typename RunFn>
McResult run_blocks(const McOptions& options, RunFn&& run_one) {
  if (options.replications == 0) {
    throw std::invalid_argument("mc: replications == 0");
  }
  const std::size_t n_blocks =
      (options.replications + kBlockSize - 1) / kBlockSize;
  BlockBoard board(n_blocks);
  par::parallel_for(
      0, static_cast<std::int64_t>(n_blocks),
      [&](std::int64_t block) {
        stats::Rng rng(options.seed ^
                       (0x9E3779B97F4A7C15ull *
                        (static_cast<std::uint64_t>(block) + 1)));
        const std::size_t begin =
            static_cast<std::size_t>(block) * kBlockSize;
        const std::size_t end =
            std::min(begin + kBlockSize, options.replications);
        // Worker-local accumulation: identical add order to writing the
        // shared slot directly, so results stay bit-identical; only the
        // memory traffic changes (one write-back per block).
        BlockSums local;
        for (std::size_t i = begin; i < end; ++i) {
          local.add(run_one(rng));
        }
        board.store(static_cast<std::size_t>(block), local);
      },
      options.pool);

  // Deterministic: partials fold in ascending block order regardless of
  // which worker produced them when.
  const std::vector<BlockSums> sums = board.take();
  numerics::KahanAccumulator j, j2, job_seconds, submissions, ratio;
  std::size_t count = 0;
  for (const auto& b : sums) {
    j.add(b.j.value());
    j2.add(b.j2.value());
    job_seconds.add(b.job_seconds.value());
    submissions.add(b.submissions.value());
    ratio.add(b.ratio.value());
    count += b.count;
  }
  McResult res;
  res.replications = count;
  const double n = static_cast<double>(count);
  res.mean_latency = j.value() / n;
  const double var =
      std::max(j2.value() / n - res.mean_latency * res.mean_latency, 0.0);
  res.std_latency = std::sqrt(var);
  res.mean_submissions = submissions.value() / n;
  res.mean_parallel_ratio = ratio.value() / n;
  res.aggregate_parallel =
      j.value() > 0.0 ? job_seconds.value() / j.value() : 1.0;
  return res;
}

}  // namespace

McResult simulate_multiple(const model::LatencyModel& m, int b, double t_inf,
                           const McOptions& options) {
  if (b < 1) throw std::invalid_argument("simulate_multiple: b < 1");
  if (!(t_inf > 0.0)) throw std::invalid_argument("simulate_multiple: t_inf");
  return run_blocks(options, [&m, b, t_inf](stats::Rng& rng) {
    RunOutcome out;
    for (std::size_t round = 0; round < kMaxRounds; ++round) {
      double best = std::numeric_limits<double>::infinity();
      for (int i = 0; i < b; ++i) {
        best = std::min(best, m.sample(rng));
      }
      out.submissions += static_cast<double>(b);
      if (best < t_inf) {
        out.total_latency += best;
        // All b copies occupy the system until the first one starts, then
        // the rest are canceled.
        out.job_seconds += static_cast<double>(b) * best;
        return out;
      }
      out.total_latency += t_inf;
      out.job_seconds += static_cast<double>(b) * t_inf;
    }
    throw std::runtime_error("simulate_multiple: max_rounds exceeded");
  });
}

McResult simulate_delayed(const model::LatencyModel& m, double t0,
                          double t_inf, const McOptions& options) {
  if (!(t0 > 0.0) || !(t_inf > t0) || t_inf > 2.0 * t0 * (1.0 + 1e-9)) {
    throw std::invalid_argument(
        "simulate_delayed: requires 0 < t0 < t_inf <= 2*t0");
  }
  return run_blocks(options, [&m, t0, t_inf](stats::Rng& rng) {
    RunOutcome out;
    double j = std::numeric_limits<double>::infinity();
    std::size_t k = 0;
    // Submit copy k at k*t0 while nothing has started yet.
    while (static_cast<double>(k) * t0 < j) {
      if (k >= kMaxRounds) {
        throw std::runtime_error("simulate_delayed: max_rounds exceeded");
      }
      const double submit = static_cast<double>(k) * t0;
      const double latency = m.sample(rng);
      if (latency < t_inf) j = std::min(j, submit + latency);
      ++k;
    }
    out.total_latency = j;
    out.submissions = static_cast<double>(k);
    // Copy i occupies [i*t0, min(i*t0 + t_inf, J)].
    for (std::size_t i = 0; i < k; ++i) {
      const double submit = static_cast<double>(i) * t0;
      out.job_seconds += std::max(0.0, std::min(submit + t_inf, j) - submit);
    }
    return out;
  });
}

}  // namespace gridsub::mc
