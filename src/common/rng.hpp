// Deterministic pseudo-random number generation.
//
// Simulations must be exactly reproducible across runs and platforms, so we
// implement our own small, well-known generators instead of relying on the
// standard library distributions (whose output is implementation defined).
//
// `Rng` is xoshiro256** seeded through splitmix64; it provides the handful of
// distributions the simulator needs (uniform ints/doubles, Bernoulli,
// geometric-like gaps, Gaussian).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace gnoc {

class Serializer;
class Deserializer;

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t SplitMix64(std::uint64_t& state);

/// Deterministic xoshiro256** generator.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same seed produce
  /// identical streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Returns the next raw 64-bit value.
  std::uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Returns true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Samples the number of failures before the first success of a Bernoulli
  /// process with success probability `p` — i.e. a geometric distribution
  /// supported on {0, 1, 2, ...}. For p <= 0 returns a large sentinel.
  std::uint64_t Geometric(double p);

  /// Standard normal via Box-Muller (deterministic pairing).
  double Gaussian();

  /// Picks an index in [0, weights.size()) proportionally to `weights`.
  /// All weights must be >= 0 and their sum > 0.
  std::size_t WeightedIndex(const std::vector<double>& weights);

  /// Forks an independent generator whose stream is decorrelated from this
  /// one. Useful to give each node its own RNG from a master seed.
  Rng Fork();

  /// Snapshot support: the full generator state (stream position and the
  /// cached Box-Muller half) round-trips exactly.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.s_);
    Io(ar, self.has_cached_gaussian_);
    Io(ar, self.cached_gaussian_);
  }

  std::array<std::uint64_t, 4> s_{};
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace gnoc
