#include "util/rng.hpp"

namespace ooc {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : lineage_(seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

int Rng::coin() noexcept { return static_cast<int>(next() >> 63); }

Rng Rng::split(std::uint64_t tag) const noexcept {
  // Mix lineage and tag through SplitMix64 twice for decorrelation.
  std::uint64_t s = lineage_ ^ (0xA0761D6478BD642FULL * (tag + 1));
  const std::uint64_t mixed = splitmix64(s) ^ splitmix64(s);
  Rng child(mixed);
  child.lineage_ = mixed;
  return child;
}

}  // namespace ooc
