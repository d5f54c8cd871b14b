// Deterministic, splittable random number generation.
//
// Every stochastic component of a simulation (network delays, coin flips,
// Byzantine behaviour, schedulers) draws from an Rng derived from one root
// seed, so a run is a pure function of (configuration, seed). We use
// xoshiro256** seeded via SplitMix64 — fast, high quality, and trivially
// reproducible across platforms (no reliance on unspecified standard-library
// distribution algorithms).
#pragma once

#include <array>
#include <cstdint>

namespace ooc {

/// xoshiro256** PRNG with SplitMix64 seeding and deterministic helpers.
///
/// Not a C++ UniformRandomBitGenerator on purpose: std::uniform_*_distribution
/// output is implementation-defined, which would break cross-platform
/// reproducibility of simulations. All helpers here are fully specified.
class Rng {
 public:
  /// Seeds the generator state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0) noexcept;

  // The draws below run on every simulated send (network delays), so they
  // are defined inline.

  /// Next raw 64-bit output.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Fair coin flip returning 0 or 1.
  int coin() noexcept;

  /// Derives an independent child generator. The child stream is a pure
  /// function of this generator's seed lineage and `tag`, so components can
  /// be given stable streams regardless of the order in which other
  /// components consume randomness.
  Rng split(std::uint64_t tag) const noexcept;

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t lineage_ = 0;  // for split(); mixes seed + tags
};

}  // namespace ooc
