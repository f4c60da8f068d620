// Workload generation for experiments: per-color count vectors and the agent
// color assignments derived from them. The random families draw their counts
// as one multinomial (dense::multinomial), O(k) per attempt whatever n is.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pp/types.hpp"
#include "util/rng.hpp"

namespace circles::analysis {

/// An input instance: how many agents hold each color.
struct Workload {
  std::vector<std::uint64_t> counts;  // size k

  std::uint64_t n() const;
  std::uint32_t k() const { return static_cast<std::uint32_t>(counts.size()); }

  /// The unique plurality winner, or nullopt on a tie.
  std::optional<pp::ColorId> winner() const;
  bool tied() const { return !winner().has_value(); }

  /// Winner margin: highest count − second-highest count.
  std::uint64_t margin() const;

  /// Expands to a shuffled per-agent color vector (deterministic in rng).
  std::vector<pp::ColorId> agent_colors(util::Rng& rng) const;

  std::string to_string() const;
};

/// Uniform-random counts over n agents and k colors, conditioned on having a
/// unique winner (rejection sampling). Every color may end up empty except
/// that at least one agent exists.
Workload random_unique_winner(util::Rng& rng, std::uint64_t n,
                              std::uint32_t k);

/// Random counts with no tie constraint (may or may not be tied).
Workload random_counts(util::Rng& rng, std::uint64_t n, std::uint32_t k);

/// An exact tie on the top colors: `tied_colors` colors share the maximum
/// count; remaining agents are spread below it. Requires
/// exact_tie_feasible(n, k, tied_colors).
Workload exact_tie(util::Rng& rng, std::uint64_t n, std::uint32_t k,
                   std::uint32_t tied_colors);

/// Whether exact_tie can build its tie: 2 <= tied_colors <= k, n >=
/// tied_colors, and the agents left over after giving each tied color
/// floor(n / tied_colors) fit on the other k - tied_colors colors strictly
/// below that count.
bool exact_tie_feasible(std::uint64_t n, std::uint32_t k,
                        std::uint32_t tied_colors);

/// The hardest non-tie margin: winner beats the runner-up by exactly one
/// (by two when k = 2 and n is even, where parity forbids one). Requires
/// close_margin_feasible(n, k).
Workload close_margin(util::Rng& rng, std::uint64_t n, std::uint32_t k);

/// Whether close_margin can build its workload: a runner-up needs a second
/// color (k >= 2), and a winner ahead of a non-empty runner-up needs n >= 3.
bool close_margin_feasible(std::uint64_t n, std::uint32_t k);

/// One dominant color holding ~share of the agents, rest uniform.
Workload dominant(util::Rng& rng, std::uint64_t n, std::uint32_t k,
                  double share);

/// Zipf-distributed counts (exponent s), conditioned on a unique winner.
Workload zipf(util::Rng& rng, std::uint64_t n, std::uint32_t k,
              double exponent);

/// Applies a random permutation to the color identities (same multiset of
/// counts, different numeric labels) — used by the E13 ablation probing the
/// weight function's dependence on color numbering.
Workload permute_colors(util::Rng& rng, const Workload& workload);

}  // namespace circles::analysis
