#include "pp/schedulers/shuffled_sweep.hpp"

#include <span>

#include "util/check.hpp"

namespace circles::pp {

ShuffledSweepScheduler::ShuffledSweepScheduler(std::uint32_t n,
                                               std::uint64_t seed)
    : rng_(seed) {
  CIRCLES_CHECK_MSG(n >= 2, "scheduler needs at least two agents");
  CIRCLES_CHECK_MSG(n <= kMaxAgents,
                    "ShuffledSweepScheduler materializes n(n-1) pairs; use the "
                    "uniform scheduler for large populations");
  pairs_.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (AgentId i = 0; i < n; ++i) {
    for (AgentId j = 0; j < n; ++j) {
      if (i != j) pairs_.push_back({i, j});
    }
  }
  rng_.shuffle(std::span<AgentPair>(pairs_));
}

AgentPair ShuffledSweepScheduler::next(const Population&) {
  if (cursor_ == pairs_.size()) {
    rng_.shuffle(std::span<AgentPair>(pairs_));
    cursor_ = 0;
  }
  return pairs_[cursor_++];
}

}  // namespace circles::pp
