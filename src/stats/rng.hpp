#pragma once

// Deterministic random number generation.
//
// All stochastic components (synthetic trace generation, Monte Carlo
// strategy execution, the discrete-event grid simulator) draw from this
// engine so every table, figure and test in the repository is exactly
// reproducible from a seed. The generator is xoshiro256++ (Blackman/Vigna),
// seeded through SplitMix64; `split()` derives statistically independent
// streams for parallel workers.

#include <cstdint>

namespace gridsub::stats {

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ engine with distribution helpers.
class Rng {
 public:
  /// Seeds the four-word state via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in (0, 1) — never exactly 0 or 1.
  double uniform01();

  /// Uniform double in [a, b).
  double uniform(double a, double b);

  /// Uniform integer in [0, n); requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal deviate (Marsaglia polar method, cached pair).
  double normal();

  /// Exponential with rate lambda > 0.
  double exponential(double lambda);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Derives an independent stream (jump via SplitMix64 of current state).
  Rng split();

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace gridsub::stats
