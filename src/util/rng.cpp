#include "util/rng.hpp"

#include <cmath>

namespace circles::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
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
  // xoshiro256++ requires a nonzero state; splitmix64 of any seed produces
  // all-zero words with probability ~2^-256, but be safe anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::operator()() {
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

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  CIRCLES_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CIRCLES_DCHECK(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::uniform01() {
  // 53 high bits → double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::pair<std::uint64_t, std::uint64_t> Rng::distinct_pair(std::uint64_t n) {
  CIRCLES_DCHECK(n >= 2);
  const std::uint64_t a = uniform_below(n);
  std::uint64_t b = uniform_below(n - 1);
  if (b >= a) ++b;
  return {a, b};
}

Rng Rng::split() {
  // Derive a child seed from two outputs; the streams are not provably
  // independent, but xoshiro's mixing is far more than adequate for
  // simulation workloads.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ rotl(b, 32) ^ 0xd1b54a32d192ed03ULL);
}

std::vector<double> zipf_weights(std::size_t k, double exponent) {
  CIRCLES_CHECK(k > 0);
  std::vector<double> w(k);
  double total = 0.0;
  // Scaled so the largest weight is 1: no overflow for any finite exponent.
  const double top = exponent >= 0.0 ? 1.0 : static_cast<double>(k);
  for (std::size_t i = 0; i < k; ++i) {
    w[i] = std::pow(top / static_cast<double>(i + 1), exponent);
    total += w[i];
  }
  for (auto& x : w) x /= total;
  return w;
}

}  // namespace circles::util
