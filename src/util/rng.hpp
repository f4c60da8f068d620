// Deterministic, platform-independent pseudo-random number generation.
//
// The simulator must replay byte-identically across platforms and standard
// library versions, so we implement xoshiro256++ (seeded via splitmix64) and
// our own bounded-integer / shuffle / real-valued helpers instead of relying
// on <random> distributions, whose outputs are implementation-defined.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace circles::util {

/// splitmix64 step; used for seeding and for cheap hash mixing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  std::uint64_t operator()();

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (Lemire's
  /// method with rejection).
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniform unordered pair of distinct indices from [0, n). Requires n >= 2.
  std::pair<std::uint64_t, std::uint64_t> distinct_pair(std::uint64_t n);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Derive an independent child generator (for per-trial streams).
  /// Advances this generator by two outputs.
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// Zipf(s) sample support helper: returns the probability vector over [0, k).
std::vector<double> zipf_weights(std::size_t k, double exponent);

}  // namespace circles::util
