#include "stats/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace gridsub::stats {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the all-zero state (probability ~0 but cheap to guard).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  for (;;) {
    const double u =
        static_cast<double>(next_u64() >> 11) * 0x1.0p-53;  // [0,1)
    if (u > 0.0) return u;
  }
}

double Rng::uniform(double a, double b) { return a + (b - a) * uniform01(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_int: n == 0");
  const std::uint64_t threshold = (0ull - n) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::exponential(double lambda) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("Rng::exponential: lambda <= 0");
  }
  return -std::log(uniform01()) / lambda;
}

bool Rng::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Rng::bernoulli: p outside [0,1]");
  }
  return uniform01() < p;
}

Rng Rng::split() {
  std::uint64_t sm = next_u64() ^ 0xA5A5A5A5A5A5A5A5ull;
  return Rng(splitmix64(sm));
}

}  // namespace gridsub::stats
