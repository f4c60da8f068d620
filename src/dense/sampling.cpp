#include "dense/sampling.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/check.hpp"

namespace circles::dense {

namespace {

constexpr std::size_t kFactorialTableSize = 2048;

const std::array<double, kFactorialTableSize>& log_factorial_table() {
  // Magic-static initialization is thread-safe; the BatchRunner calls the
  // samplers from many worker threads at once.
  static const std::array<double, kFactorialTableSize> table = [] {
    std::array<double, kFactorialTableSize> t{};
    double acc = 0.0;
    t[0] = 0.0;
    for (std::size_t i = 1; i < kFactorialTableSize; ++i) {
      acc += std::log(static_cast<double>(i));
      t[i] = acc;
    }
    return t;
  }();
  return table;
}

constexpr double kHalfLog2Pi = 0.91893853320467274178;

// log(x!) minus its Stirling leading part (x + 1/2) log x - x + log(2 pi)/2:
// O(1/x), so differences of it keep full precision at any x. Requires x > 0.
double stirling_remainder(std::uint64_t x) {
  const double n = static_cast<double>(x);
  if (x < kFactorialTableSize) {
    const double leading = (n + 0.5) * std::log(n) - n + kHalfLog2Pi;
    return log_factorial_table()[x] - leading;
  }
  const double n2 = n * n;
  return 1.0 / (12.0 * n) - 1.0 / (360.0 * n2 * n) +
         1.0 / (1260.0 * n2 * n2 * n);
}

// Chop-down inversion from the mode of a unimodal pmf on [lo, hi], with one
// uniform draw: starting from p_mode = pmf(mode), walk outwards alternating
// sides, reaching each neighbour by an exact ratio -- up(x) = pmf(x+1) /
// pmf(x), down(x) = pmf(x-1) / pmf(x) -- and subtract it from u until u goes
// negative. O(stddev) expected steps.
template <typename Up, typename Down>
std::uint64_t chop_down(util::Rng& rng, std::uint64_t lo, std::uint64_t mode,
                        std::uint64_t hi, double p_mode, Up up, Down down) {
  double remaining = rng.uniform01() - p_mode;
  if (remaining < 0.0) return mode;

  std::uint64_t x_up = mode, x_down = mode;
  double p_up = p_mode, p_down = p_mode;
  while (x_up < hi || x_down > lo) {
    if (x_up < hi) {
      p_up *= up(static_cast<double>(x_up));
      ++x_up;
      remaining -= p_up;
      if (remaining < 0.0) return x_up;
    }
    if (x_down > lo) {
      p_down *= down(static_cast<double>(x_down));
      --x_down;
      remaining -= p_down;
      if (remaining < 0.0) return x_down;
    }
  }
  // The accumulated mass fell a few ulps short of u; any in-range value has
  // the right distribution up to that rounding.
  return mode;
}

}  // namespace

double log_factorial(std::uint64_t x) {
  if (x < kFactorialTableSize) return log_factorial_table()[x];
  // Stirling series for log Gamma(x + 1), summed term by term (not via
  // stirling_remainder) so the dense engines' draws stay bitwise unchanged.
  const double n = static_cast<double>(x);
  const double n2 = n * n;
  return (n + 0.5) * std::log(n) - n + kHalfLog2Pi + 1.0 / (12.0 * n) -
         1.0 / (360.0 * n2 * n) + 1.0 / (1260.0 * n2 * n2 * n);
}

double log_choose(std::uint64_t n, std::uint64_t k) {
  CIRCLES_DCHECK(k <= n);
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

std::uint64_t hypergeometric(util::Rng& rng, std::uint64_t total,
                             std::uint64_t successes, std::uint64_t draws) {
  CIRCLES_CHECK_MSG(successes <= total && draws <= total,
                    "hypergeometric parameters out of range");
  const std::uint64_t failures = total - successes;
  const std::uint64_t lo = draws > failures ? draws - failures : 0;
  const std::uint64_t hi = std::min(draws, successes);
  if (lo >= hi) return lo;

  // Small draws dominate the batched engine's contingency sampling; drawing
  // them item by item is exact *integer* sampling and beats the log-gamma
  // anchor below. HG(N, K, m) == HG(N, m, K) (both count |draws ∩
  // successes|), so a small success count works just as well.
  constexpr std::uint64_t kSequentialCutoff = 16;
  std::uint64_t seq_m = draws, seq_k = successes;
  if (std::min(seq_m, seq_k) <= kSequentialCutoff) {
    if (seq_k < seq_m) std::swap(seq_m, seq_k);
    std::uint64_t x = 0;
    std::uint64_t pool = total, hits = seq_k;
    for (std::uint64_t i = 0; i < seq_m; ++i) {
      if (rng.uniform_below(pool) < hits) {
        ++x;
        --hits;
      }
      --pool;
    }
    return x;
  }

  const double dm = static_cast<double>(draws);
  const double dk = static_cast<double>(successes);
  const double df = static_cast<double>(failures);

  std::uint64_t mode = static_cast<std::uint64_t>(
      ((dm + 1.0) * (dk + 1.0)) / (static_cast<double>(total) + 2.0));
  mode = std::clamp(mode, lo, hi);

  const auto log_pmf = [&](std::uint64_t x) {
    return log_choose(successes, x) + log_choose(failures, draws - x) -
           log_choose(total, draws);
  };

  // Chop-down inversion from the mode: the anchor probability comes from
  // log-gamma once; every neighbour is reached by exact pmf ratios.
  return chop_down(
      rng, lo, mode, hi, std::exp(log_pmf(mode)),
      [&](double x) {
        return (dk - x) * (dm - x) / ((x + 1.0) * (df - dm + x + 1.0));
      },
      [&](double x) {
        return x * (df - dm + x) / ((dk - x + 1.0) * (dm - x + 1.0));
      });
}

std::uint64_t binomial(util::Rng& rng, std::uint64_t n, double p) {
  CIRCLES_CHECK_MSG(std::isfinite(p) && p >= 0.0 && p <= 1.0,
                    "binomial probability must be finite and in [0, 1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  // Bin(n, p) == n - Bin(n, 1 - p), and 1 - p is exact for p >= 1/2; the
  // walk below is cheapest with the smaller success probability.
  if (p > 0.5) return n - binomial(rng, n, 1.0 - p);

  constexpr std::uint64_t kSequentialCutoff = 16;
  if (n <= kSequentialCutoff) {
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (rng.uniform01() < p) ++x;
    }
    return x;
  }

  const double dn = static_cast<double>(n);
  const double odds = p / (1.0 - p);
  const std::uint64_t mode =
      std::min(n, static_cast<std::uint64_t>((dn + 1.0) * p));
  const double dmode = static_cast<double>(mode);

  // The anchor log pmf(mode) in saddle-point form. log_choose(n, mode) is a
  // difference of O(n log n) terms and loses ~n * 2^-53 in absolute terms
  // (a 0.2% mass error by n = 10^12); here those terms cancel analytically,
  // and np - mode is formed with a single rounding.
  double log_p_mode = dn * std::log1p(-p);  // mode == 0
  if (mode > 0) {
    const double rest = dn - dmode;
    const double shortfall = std::fma(dn, p, -dmode);  // np - mode
    log_p_mode = dmode * std::log1p(shortfall / dmode) +
                 rest * std::log1p(-shortfall / rest) +
                 0.5 * std::log(dn / (dmode * rest)) - kHalfLog2Pi +
                 stirling_remainder(n) - stirling_remainder(mode) -
                 stirling_remainder(n - mode);
  }

  // Walk only mode +- (40 stddev + 100). By Bernstein's inequality,
  // P(|X - np| >= t) <= 2 exp(-t^2 / (2 (npq + t / 3))) < 1e-60 there,
  // far beneath uniform01's 2^-53 resolution, so the window is
  // unobservable -- and a mass that rounds a few ulps short of u never
  // walks all of [0, n].
  const auto reach =
      static_cast<std::uint64_t>(40.0 * std::sqrt(dn * p * (1.0 - p)) + 100.0);
  const std::uint64_t lo = mode > reach ? mode - reach : 0;
  const std::uint64_t hi = n - mode > reach ? mode + reach : n;
  return chop_down(
      rng, lo, mode, hi, std::exp(log_p_mode),
      [&](double x) { return (dn - x) / (x + 1.0) * odds; },
      [&](double x) { return x / ((dn - x + 1.0) * odds); });
}

void multinomial(util::Rng& rng, std::uint64_t n,
                 std::span<const double> weights,
                 std::span<std::uint64_t> out) {
  CIRCLES_DCHECK(weights.size() == out.size());
  // suffix[c] = sum_{j>=c} weights[j]. Rounding is monotone, so
  // weights[c] / suffix[c] <= 1, and it is exactly 1 at the last positive
  // weight, which therefore takes every remaining item.
  std::vector<double> suffix(weights.size() + 1, 0.0);
  for (std::size_t c = weights.size(); c-- > 0;) {
    CIRCLES_CHECK_MSG(std::isfinite(weights[c]) && weights[c] >= 0.0,
                      "multinomial weights must be finite and non-negative");
    suffix[c] = suffix[c + 1] + weights[c];
  }
  CIRCLES_CHECK_MSG(suffix[0] > 0.0 && std::isfinite(suffix[0]),
                    "multinomial weights need a finite positive sum");
  std::uint64_t remaining = n;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    out[c] = suffix[c] > 0.0
                 ? binomial(rng, remaining, weights[c] / suffix[c])
                 : 0;
    remaining -= out[c];
  }
  CIRCLES_DCHECK(remaining == 0);
}

void multivariate_hypergeometric(util::Rng& rng,
                                 std::span<const std::uint64_t> counts,
                                 std::uint64_t draws,
                                 std::span<std::uint64_t> out) {
  CIRCLES_DCHECK(counts.size() == out.size());
  std::uint64_t pool = 0;
  for (const std::uint64_t c : counts) pool += c;
  CIRCLES_CHECK_MSG(draws <= pool,
                    "multivariate hypergeometric overdraws the pool");
  std::uint64_t need = draws;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (need == 0) {
      out[i] = 0;
      continue;
    }
    const std::uint64_t d = hypergeometric(rng, pool, counts[i], need);
    out[i] = d;
    pool -= counts[i];
    need -= d;
  }
  CIRCLES_DCHECK(need == 0);
}

CollisionFreeRunLength::CollisionFreeRunLength(std::uint64_t n) {
  CIRCLES_CHECK_MSG(n >= 2, "collision-free run length needs n >= 2");
  const double denom =
      static_cast<double>(n) * static_cast<double>(n - 1);
  survival_.push_back(1.0);
  double s = 1.0;
  for (std::uint64_t j = 0;; ++j) {
    const double fresh = static_cast<double>(n) - 2.0 * static_cast<double>(j);
    if (fresh < 2.0) break;
    s *= fresh * (fresh - 1.0) / denom;
    if (s <= 0.0) break;
    survival_.push_back(s);
    mean_ += s;
    if (s < 1e-18) break;
  }
}

std::uint64_t CollisionFreeRunLength::sample(util::Rng& rng) const {
  const double u = rng.uniform01();
  // Largest j with survival_[j] > u; survival_[1] == 1, so L >= 1 always
  // (the first interaction cannot collide).
  std::size_t lo = 0, hi = survival_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (survival_[mid] > u) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint64_t last_special_slot(util::Rng& rng, std::uint64_t slots,
                                std::uint64_t special) {
  CIRCLES_CHECK_MSG(special >= 1 && special <= slots,
                    "last_special_slot needs 1 <= special <= slots");
  // Reservoir-style scan from the top: slot j is in a uniform special-subset
  // with probability special/j given that no higher slot is; the first hit
  // is the maximum.
  for (std::uint64_t j = slots; j > special; --j) {
    if (rng.uniform_below(j) < special) return j;
  }
  return special;  // slots 1..special must all be special
}

}  // namespace circles::dense
