// Exact samplers for the dense (count-based) engines and for per-trial
// workload counts (binomial / multinomial, O(k) whatever n is).
//
// The batched engine advances ~sqrt(n) interactions per epoch; turning an
// epoch into O(present_states^2) work instead of O(sqrt(n)) requires draws
// from hypergeometric distributions ("how many of the 2L distinct agents of
// this epoch hold state s?"). When an epoch has fewer agents than that, it
// draws them one by one instead (AgentDeal). Everything here is built
// directly on util::Rng inversion, so results are deterministic per seed;
// the only platform dependence is ordinary double arithmetic, the same
// caliber as the Gillespie module's exponential clocks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace circles::dense {

/// log(x!) — table-backed for small x, Stirling series beyond (relative
/// error < 1e-14 there, far below the samplers' inversion tolerance).
double log_factorial(std::uint64_t x);

/// log of the binomial coefficient C(n, k). Requires k <= n.
double log_choose(std::uint64_t n, std::uint64_t k);

/// Number of "success" items among `draws` draws without replacement from a
/// population of `total` items containing `successes` successes. Exact
/// inversion by chop-down from the mode: one uniform draw from `rng`,
/// O(stddev) expected walk length. Degenerate supports return without
/// consuming randomness.
std::uint64_t hypergeometric(util::Rng& rng, std::uint64_t total,
                             std::uint64_t successes, std::uint64_t draws);

/// Number of successes in `n` independent trials of probability `p`. Same
/// idiom as `hypergeometric`: item by item for small n, otherwise chop-down
/// inversion from the mode with one uniform draw and O(stddev) expected walk
/// length. The mode's probability is anchored in saddle-point form, so the
/// walked mass stays within ~1e-11 of 1 up to n = 10^12 (log_choose drifts
/// to ~1e-3 there). Requires a finite p in [0, 1]; n == 0 and p in {0, 1}
/// return without consuming randomness.
std::uint64_t binomial(util::Rng& rng, std::uint64_t n, double p);

/// Multinomial: splits `n` items over the categories of `weights` (finite,
/// non-negative, positive sum; need not be normalized) as a chain of
/// binomials, counts[c] ~ Bin(remaining, w_c / sum_{j>=c} w_j). O(k) draws
/// whatever n is. `out` (same size as `weights`) always sums to `n`.
void multinomial(util::Rng& rng, std::uint64_t n,
                 std::span<const double> weights,
                 std::span<std::uint64_t> out);

/// Multivariate hypergeometric: splits `draws` items drawn without
/// replacement from sum(counts) across the categories of `counts`.
/// `out` (same size as `counts`) receives the per-category draw counts,
/// which always sum to `draws`. Requires draws <= sum(counts).
void multivariate_hypergeometric(util::Rng& rng,
                                 std::span<const std::uint64_t> counts,
                                 std::uint64_t draws,
                                 std::span<std::uint64_t> out);

/// Per-agent deal: draws agents one at a time without replacement from the
/// categories of `counts`, each draw uniform over the agents still in the
/// urn. A Fenwick tree over the counts, rebuilt per deal, makes a deal of T
/// agents over w categories cost O(w + T log w) and one uniform draw per
/// agent. The draw order is exchangeable, so any fixed assignment of draw
/// positions to roles deals each role a uniform random set of the urn's
/// agents.
class AgentDeal {
 public:
  /// Writes the category index of each drawn agent, in draw order, to
  /// `order`. Requires order.size() <= sum(counts).
  void deal(util::Rng& rng, std::span<const std::uint64_t> counts,
            std::span<std::uint32_t> order);

 private:
  std::vector<std::uint64_t> tree_;  // 1-based Fenwick partial sums
};

/// Role layout of a per-agent epoch over `num_urns` urns, given the
/// row-major block lengths (block (u, v): initiators from urn u, responders
/// from urn v). Urn u's draw order is sliced in the multivariate deal's role
/// order: initiators of blocks (u, 0..U-1), then responders of blocks
/// (0..U-1, u). Block b = (u, v) finds its initiators at init_offset[b]
/// onward in urn u's order and its responders at resp_offset[b] onward in
/// urn v's; its i-th interaction pairs the i-th of each.
void role_offsets(std::span<const std::uint64_t> block_len,
                  std::size_t num_urns, std::span<std::uint64_t> init_offset,
                  std::span<std::uint64_t> resp_offset);

/// Distribution of the collision-free prefix of the uniform scheduler over n
/// agents: P(the first j interactions touch 2j distinct agents) =
/// prod_{i<j} (n-2i)(n-2i-1) / (n(n-1)). One instance precomputes this
/// survival table for a fixed n and samples the prefix length L >= 1 by
/// inversion (one uniform draw per sample). The table is truncated once
/// survival drops below 1e-18 — beneath uniform01's 2^-53 resolution, so
/// the truncation is unobservable.
class CollisionFreeRunLength {
 public:
  explicit CollisionFreeRunLength(std::uint64_t n);

  /// Samples L = the number of collision-free interactions before the first
  /// interaction that re-touches an already-used agent.
  std::uint64_t sample(util::Rng& rng) const;

  /// Largest sampleable L (where the survival table was truncated).
  std::uint64_t max_length() const { return survival_.size() - 1; }

  /// E[L] (sum of the survival table) — used to decide when an epoch is no
  /// longer worth its fixed cost.
  double mean_length() const { return mean_; }

 private:
  std::vector<double> survival_;  // survival_[j] = P(L >= j)
  double mean_ = 0.0;
};

/// The position (1-based) of the last of `special` marked slots among
/// `slots` exchangeable slots: the maximum of a uniform `special`-subset of
/// {1..slots}. Used to place the final state change exactly within the final
/// epoch. Requires 1 <= special <= slots.
std::uint64_t last_special_slot(util::Rng& rng, std::uint64_t slots,
                                std::uint64_t special);

}  // namespace circles::dense
