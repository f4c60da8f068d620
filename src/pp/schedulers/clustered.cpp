#include "pp/schedulers/clustered.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace circles::pp {

UrnLumping clustered_lumping(std::uint64_t n, const ClusteredOptions& options) {
  UrnLumping lumping;
  lumping.sizes = options.resolve_sizes(n);
  const std::size_t u_count = lumping.sizes.size();
  lumping.rates.assign(u_count * u_count, 0.0);
  if (u_count == 1) {
    lumping.rates[0] = 1.0;
    return lumping;
  }
  const double bridge = options.bridge_probability;
  if (!(bridge > 0.0) || bridge > 1.0) {
    throw std::invalid_argument("bridge probability must be in (0, 1]");
  }
  const double cross =
      bridge / (static_cast<double>(u_count) * (u_count - 1));
  const double intra = (1.0 - bridge) / static_cast<double>(u_count);
  for (std::size_t u = 0; u < u_count; ++u) {
    for (std::size_t v = 0; v < u_count; ++v) {
      lumping.rates[u * u_count + v] = u == v ? intra : cross;
    }
  }
  return lumping;
}

ClusteredScheduler::ClusteredScheduler(std::uint32_t n, std::uint64_t seed,
                                       double bridge_probability)
    : ClusteredScheduler(n, seed,
                         ClusteredOptions{.sizes = {},
                                          .num_clusters = 2,
                                          .bridge_probability =
                                              bridge_probability}) {
  CIRCLES_CHECK_MSG(n >= 4, "clustered scheduler needs at least four agents");
}

ClusteredScheduler::ClusteredScheduler(std::uint32_t n, std::uint64_t seed,
                                       const ClusteredOptions& options)
    : ClusteredScheduler(clustered_lumping(n, options), seed) {}

ClusteredScheduler::ClusteredScheduler(UrnLumping lumping, std::uint64_t seed)
    : lumping_(std::move(lumping)), rng_(seed) {
  lumping_.validate();
  offsets_.reserve(lumping_.num_urns());
  std::uint64_t offset = 0;
  for (const std::uint64_t size : lumping_.sizes) {
    offsets_.push_back(offset);
    offset += size;
  }
  cumulative_rates_.reserve(lumping_.rates.size());
  double acc = 0.0;
  for (const double rate : lumping_.rates) {
    acc += rate;
    cumulative_rates_.push_back(acc);
  }
}

AgentPair ClusteredScheduler::next(const Population&) {
  const std::size_t u_count = lumping_.num_urns();
  std::size_t block = 0;
  if (u_count > 1) {
    const double r = rng_.uniform01();
    while (block + 1 < cumulative_rates_.size() &&
           r >= cumulative_rates_[block]) {
      ++block;
    }
    // A zero-rate block owns no probability interval, so the walk can only
    // land on one when rounding pushed r past the final live block's
    // cumulative sum; fall back to the nearest live block.
    while (lumping_.rates[block] == 0.0 && block > 0) --block;
  }
  const std::size_t u = block / u_count;
  const std::size_t v = block % u_count;
  if (u == v) {
    const auto [a, b] = rng_.distinct_pair(lumping_.sizes[u]);
    return {static_cast<AgentId>(offsets_[u] + a),
            static_cast<AgentId>(offsets_[u] + b)};
  }
  const auto a =
      static_cast<AgentId>(offsets_[u] + rng_.uniform_below(lumping_.sizes[u]));
  const auto b =
      static_cast<AgentId>(offsets_[v] + rng_.uniform_below(lumping_.sizes[v]));
  return {a, b};
}

}  // namespace circles::pp
