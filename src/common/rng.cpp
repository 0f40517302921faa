#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "common/serialize.hpp"

namespace gnoc {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
  // xoshiro must not be seeded with all zeros; splitmix64 cannot produce
  // four zero outputs in a row, but be defensive anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBounded(span));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits -> uniform in [0,1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

std::uint64_t Rng::Geometric(double p) {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint32_t>::max();
  const double u = 1.0 - UniformDouble();  // in (0,1]
  const double g = std::floor(std::log(u) / std::log1p(-p));
  if (g < 0.0) return 0;
  if (g > 1e12) return static_cast<std::uint64_t>(1e12);
  return static_cast<std::uint64_t>(g);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  cached_gaussian_ = r * std::sin(kTwoPi * u2);
  has_cached_gaussian_ = true;
  return r * std::cos(kTwoPi * u2);
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double pick = UniformDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() {
  // Combine two raw outputs so forked streams do not share a prefix.
  const std::uint64_t a = Next();
  const std::uint64_t b = Next();
  return Rng(a ^ Rotl(b, 32) ^ 0xD1B54A32D192ED03ull);
}


void Rng::Save(Serializer& s) const { Fields(*this, s); }
void Rng::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
