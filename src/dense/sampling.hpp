// Exact samplers for the dense (count-based) engines and for per-trial
// workload counts (binomial / multinomial, O(k) whatever n is).
//
// The batched engine advances ~sqrt(n) interactions per epoch; turning an
// epoch into O(present_states^2) work instead of O(sqrt(n)) requires draws
// from hypergeometric distributions ("how many of the 2L distinct agents of
// this epoch hold state s?"). When an epoch has fewer agents than that, it
// samples its interactions one at a time by agent identity instead
// (sample_agent_epoch over AgentIndex numberings and TakenSets, with the
// block drawn by BlockDraw); the engine and the conformance test call the
// same code. Everything here is built directly on util::Rng inversion, so
// results are deterministic per seed; the only platform dependence is
// ordinary double arithmetic, the same caliber as the crn module's
// exponential clock.
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

/// The block draw of a multi-urn scheduler: the live blocks (positive
/// rate) of a row-major rate matrix in order, with cumulative rate
/// intervals [start, end) accumulated in that order (the roundings of a
/// linear walk over the matrix), and a kBuckets-entry guide over the ends.
/// find(r) scans from guide[floor(r * kBuckets)] to the block a binary
/// search over the ends returns, in O(1) expected steps. Built once per
/// run.
class BlockDraw {
 public:
  explicit BlockDraw(std::span<const double> rates);

  /// The first live index whose cumulative end exceeds r in [0, 1), or
  /// size() when r lies past the last end (rounding).
  std::size_t find(double r) const {
    std::size_t j = guide_[static_cast<std::size_t>(r * kBuckets)];
    while (j < end_.size() && end_[j] <= r) ++j;
    return j;
  }

  /// The block whose interval holds r: find(r), or past the last end the
  /// final live block.
  std::size_t pick(double r) const {
    const std::size_t j = find(r);
    return j < size() ? blocks_[j] : blocks_.back();
  }

  std::size_t size() const { return blocks_.size(); }
  /// The block of live index j, and where its rate interval starts.
  std::size_t block(std::size_t j) const { return blocks_[j]; }
  double start(std::size_t j) const { return start_[j]; }
  std::size_t last_block() const { return blocks_.back(); }

 private:
  static constexpr std::size_t kBuckets = 256;
  std::vector<std::size_t> blocks_;
  std::vector<double> start_, end_;
  std::vector<std::uint32_t> guide_;  // guide_[g]: first end above g / kBuckets
};

/// Agent numbering of one urn for per-agent epochs: the agents of category
/// c (which holds counts[ids[c]] of them) get the indices cum[c] ..
/// cum[c + 1] - 1, and category(i) maps an index back through the
/// cumulative counts and a guide table over index buckets of width
/// 2^shift: guide[g] is the category of index g << shift, and the lookup
/// scans forward from there, O(1 + categories / buckets) expected steps.
/// reserve() sizes the guide from the draws an epoch is expected to make
/// (about that many buckets), not from the urn's size; build() costs
/// O(categories + buckets).
class AgentIndex {
 public:
  void reserve(std::uint64_t expected_draws);
  void build(std::span<const std::uint32_t> ids,
             std::span<const std::uint64_t> counts);

  std::uint64_t total() const { return cum_.back(); }
  std::uint32_t category(std::uint64_t index) const {
    std::uint32_t c = guide_[index >> shift_];
    while (cum_[c + 1] <= index) ++c;
    return c;
  }

 private:
  std::uint64_t buckets_ = 1;      // guide size target, a power of two
  unsigned shift_ = 0;
  std::vector<std::uint64_t> cum_{0};  // cum_[c]: agents in categories < c
  std::vector<std::uint32_t> guide_;
};

/// The agent indices of one urn taken in the current epoch: an
/// open-addressed set with linear probing. Entries carry the epoch's stamp,
/// so clear() is O(1); reserve() sizes it from the draws an epoch is
/// expected to make, and it doubles once it is half full. Indices are
/// below 2^32 (the dense engine's population bound).
class TakenSet {
 public:
  void reserve(std::uint64_t expected_draws);
  void clear();
  /// Adds `index`; false (and no change) if the epoch already took it.
  bool insert(std::uint64_t index) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    return place(stamp_ << 32 | index);
  }

 private:
  bool place(std::uint64_t entry) {
    const std::uint64_t index = entry & 0xffffffffu;
    std::size_t i =
        static_cast<std::size_t>((index * 0x9e3779b97f4a7c15ull) >> shift_);
    while (slots_[i] >> 32 == stamp_) {
      if (slots_[i] == entry) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = entry;
    ++size_;
    return true;
  }
  /// Moves the current epoch's entries into a table of `slots` (a power of
  /// two, at least 16).
  void rehash(std::size_t slots);

  std::vector<std::uint64_t> slots_;  // stamp << 32 | index
  std::uint64_t stamp_ = 1;           // entries of older stamps are empty
  std::uint64_t size_ = 0;
  unsigned shift_ = 64;               // 64 - log2(slots_.size())
};

/// One urn as the per-agent epoch sampler sees it: its agents numbered
/// from the pre-epoch counts, and the indices the epoch has taken.
struct AgentUrn {
  AgentIndex index;
  TakenSet taken;
  void reserve(std::uint64_t expected_draws) {
    index.reserve(expected_draws);
    taken.reserve(expected_draws);
  }
};

/// How a per-agent epoch ended.
struct AgentEpochEnd {
  std::uint64_t length = 0;  // collision-free interactions
  bool collided = false;     // false: the budget ended the epoch
  std::size_t block = 0;     // block of the colliding interaction
};

/// The per-agent epoch: samples the scheduler's interactions one at a time
/// by agent identity until the first one that re-touches an agent of this
/// epoch, or until `budget` interactions. Each step draws its block from
/// `blocks` (null for a single urn: block 0), a uniform initiator index in
/// urn u and a uniform responder index in urn v (on diagonal blocks one of
/// the other n_u - 1 agents); an index already in its urn's taken set ends
/// the epoch, and that step is the colliding interaction, returned in
/// AgentEpochEnd. Otherwise `pair(step, block, ci, cr)` receives both
/// agents' categories in their urns' index; every urn's index must have
/// been built from the pre-epoch counts. O(1) expected work per step.
template <typename Pair>
AgentEpochEnd sample_agent_epoch(util::Rng& rng, const BlockDraw* blocks,
                                 std::span<AgentUrn> urns,
                                 std::uint64_t budget, Pair&& pair) {
  const std::size_t num_urns = urns.size();
  for (AgentUrn& urn : urns) urn.taken.clear();
  AgentEpochEnd end;
  for (; end.length < budget; ++end.length) {
    const std::size_t b = blocks != nullptr ? blocks->pick(rng.uniform01()) : 0;
    AgentUrn& urn_i = urns[b / num_urns];
    AgentUrn& urn_r = urns[b % num_urns];
    const std::uint64_t i = rng.uniform_below(urn_i.index.total());
    bool fresh = urn_i.taken.insert(i);
    std::uint64_t r = 0;
    if (fresh) {
      if (&urn_i == &urn_r) {
        r = rng.uniform_below(urn_i.index.total() - 1);
        if (r >= i) ++r;
      } else {
        r = rng.uniform_below(urn_r.index.total());
      }
      fresh = urn_r.taken.insert(r);
    }
    if (!fresh) {
      end.collided = true;
      end.block = b;
      return end;
    }
    pair(end.length, b, urn_i.index.category(i), urn_r.index.category(r));
  }
  return end;
}

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
