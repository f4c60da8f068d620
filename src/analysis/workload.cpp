#include "analysis/workload.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "dense/sampling.hpp"
#include "util/check.hpp"

namespace circles::analysis {

std::uint64_t Workload::n() const {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

std::optional<pp::ColorId> Workload::winner() const {
  std::optional<pp::ColorId> best;
  std::uint64_t best_count = 0;
  bool tied = false;
  for (pp::ColorId c = 0; c < counts.size(); ++c) {
    if (counts[c] > best_count) {
      best = c;
      best_count = counts[c];
      tied = false;
    } else if (counts[c] == best_count && best_count > 0) {
      tied = true;
    }
  }
  if (tied || best_count == 0) return std::nullopt;
  return best;
}

std::uint64_t Workload::margin() const {
  std::uint64_t highest = 0, second = 0;
  for (const auto c : counts) {
    if (c >= highest) {
      second = highest;
      highest = c;
    } else if (c > second) {
      second = c;
    }
  }
  return highest - second;
}

std::vector<pp::ColorId> Workload::agent_colors(util::Rng& rng) const {
  std::vector<pp::ColorId> colors;
  colors.reserve(n());
  for (pp::ColorId c = 0; c < counts.size(); ++c) {
    colors.insert(colors.end(), counts[c], c);
  }
  rng.shuffle(std::span<pp::ColorId>(colors));
  return colors;
}

std::string Workload::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (c > 0) os << ",";
    os << counts[c];
  }
  os << "]";
  return os.str();
}

Workload random_counts(util::Rng& rng, std::uint64_t n, std::uint32_t k) {
  CIRCLES_CHECK(k >= 1 && n >= 1);
  Workload w;
  w.counts.assign(k, 0);
  const std::vector<double> uniform(k, 1.0);
  dense::multinomial(rng, n, uniform, w.counts);
  return w;
}

Workload random_unique_winner(util::Rng& rng, std::uint64_t n,
                              std::uint32_t k) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Workload w = random_counts(rng, n, k);
    if (!w.tied()) return w;
  }
  // Pathological (e.g. n == k == 2 ties half the time but not 10000 times).
  CIRCLES_CHECK_MSG(false, "could not sample a unique-winner workload");
  return {};
}

bool exact_tie_feasible(std::uint64_t n, std::uint32_t k,
                        std::uint32_t tied_colors) {
  if (tied_colors < 2 || tied_colors > k || n < tied_colors) return false;
  // The shared top count is as large as possible; a smaller one only grows
  // the leftover while shrinking the room below it.
  const std::uint64_t top = n / tied_colors;
  const std::uint64_t rest = n - top * tied_colors;
  const std::uint32_t others = k - tied_colors;
  return others == 0 ? rest == 0
                     : rest <= static_cast<std::uint64_t>(others) * (top - 1);
}

Workload exact_tie(util::Rng& rng, std::uint64_t n, std::uint32_t k,
                   std::uint32_t tied_colors) {
  CIRCLES_CHECK_MSG(exact_tie_feasible(n, k, tied_colors),
                    "cannot build an exact tie with these parameters");
  Workload w;
  w.counts.assign(k, 0);
  const std::uint64_t top = n / tied_colors;
  std::uint64_t rest = n - top * tied_colors;
  const std::uint32_t others = k - tied_colors;
  for (std::uint32_t c = 0; c < tied_colors; ++c) w.counts[c] = top;
  // Spread the remainder over the non-tied colors, each strictly below top.
  std::uint32_t cursor = tied_colors;
  while (rest > 0) {
    const std::uint64_t take =
        std::min<std::uint64_t>(rest, top - 1 - w.counts[cursor]);
    w.counts[cursor] += take;
    rest -= take;
    cursor = tied_colors + (cursor + 1 - tied_colors) % others;
  }
  // Shuffle which colors carry which count so the tie isn't always on the
  // low color ids.
  rng.shuffle(std::span<std::uint64_t>(w.counts));
  CIRCLES_CHECK(w.tied());
  return w;
}

bool close_margin_feasible(std::uint64_t n, std::uint32_t k) {
  return k >= 2 && n >= 3;
}

Workload close_margin(util::Rng& rng, std::uint64_t n, std::uint32_t k) {
  CIRCLES_CHECK_MSG(close_margin_feasible(n, k),
                    "cannot build a close-margin workload with these "
                    "parameters");
  // Winner holds q+delta agents, runner-up holds q, the other k-2 colors
  // share the rest with counts <= q. delta = 1 when parity/feasibility
  // allows, else 2 (e.g. k = 2 with even n forces an even margin).
  for (std::uint64_t delta = 1; delta <= 2; ++delta) {
    if (n < delta) continue;
    const std::uint64_t budget = n - delta;  // = 2q + rest
    // Feasibility: rest = budget - 2q must satisfy 0 <= rest <= (k-2) q.
    const std::uint64_t q_min = (budget + k - 1) / k;  // ceil(budget / k)
    const std::uint64_t q_max = budget / 2;
    if (q_min == 0 || q_min > q_max) continue;
    const std::uint64_t q = q_min;  // spread the rest as evenly as possible

    Workload w;
    w.counts.assign(k, 0);
    w.counts[0] = q + delta;
    w.counts[1] = q;
    std::uint64_t rest = budget - 2 * q;
    // Round-robin the rest over colors 2..k-1, each capped at q.
    for (std::uint64_t pass = 0; rest > 0; ++pass) {
      bool placed = false;
      for (pp::ColorId c = 2; c < k && rest > 0; ++c) {
        if (w.counts[c] < q) {
          w.counts[c] += 1;
          rest -= 1;
          placed = true;
        }
      }
      CIRCLES_CHECK_MSG(placed, "close_margin: distribution stuck");
    }
    rng.shuffle(std::span<std::uint64_t>(w.counts));
    CIRCLES_CHECK(!w.tied() && w.margin() == delta);
    return w;
  }
  CIRCLES_CHECK_MSG(false, "could not build a close-margin workload");
  return {};
}

Workload dominant(util::Rng& rng, std::uint64_t n, std::uint32_t k,
                  double share) {
  CIRCLES_CHECK(k >= 1 && n >= 1 && share > 0.0 && share <= 1.0);
  Workload w;
  w.counts.assign(k, 0);
  const auto dominant_count =
      static_cast<std::uint64_t>(share * static_cast<double>(n));
  const pp::ColorId dom = static_cast<pp::ColorId>(rng.uniform_below(k));
  // Spread the rest uniformly over all k colors, the dominant one included.
  const std::vector<double> uniform(k, 1.0);
  dense::multinomial(rng, n - dominant_count, uniform, w.counts);
  w.counts[dom] += dominant_count;
  return w;
}

Workload zipf(util::Rng& rng, std::uint64_t n, std::uint32_t k,
              double exponent) {
  const auto weights = util::zipf_weights(k, exponent);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Workload w;
    w.counts.assign(k, 0);
    dense::multinomial(rng, n, weights, w.counts);
    if (!w.tied()) return w;
  }
  CIRCLES_CHECK_MSG(false, "could not sample a unique-winner zipf workload");
  return {};
}

Workload permute_colors(util::Rng& rng, const Workload& workload) {
  std::vector<pp::ColorId> perm(workload.k());
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(std::span<pp::ColorId>(perm));
  Workload out;
  out.counts.assign(workload.k(), 0);
  for (pp::ColorId c = 0; c < workload.k(); ++c) {
    out.counts[perm[c]] = workload.counts[c];
  }
  return out;
}

}  // namespace circles::analysis
