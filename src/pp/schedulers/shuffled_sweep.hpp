// Randomized sweeps: each period visits every ordered pair exactly once, in a
// freshly shuffled order. Weakly fair by construction and still randomized,
// which catches order-dependence bugs that plain round-robin can mask.
//
// Materializes all n(n-1) ordered pairs, so intended for n <= ~1024.
#pragma once

#include <vector>

#include "pp/scheduler.hpp"
#include "util/rng.hpp"

namespace circles::pp {

class ShuffledSweepScheduler final : public Scheduler {
 public:
  /// Largest population: the sweep holds all n(n-1) ordered pairs.
  static constexpr std::uint32_t kMaxAgents = 1024;

  ShuffledSweepScheduler(std::uint32_t n, std::uint64_t seed);

  AgentPair next(const Population& population) override;
  /// A window of n(n-1) steps can straddle two differently-shuffled sweeps
  /// and miss pairs; any window of 2·n(n-1)−1 consecutive steps contains at
  /// least one complete sweep, which visits every ordered pair.
  std::uint64_t fairness_period() const override {
    return 2 * pairs_.size() - 1;
  }
  std::string name() const override { return "shuffled"; }

 private:
  std::vector<AgentPair> pairs_;
  std::size_t cursor_ = 0;
  util::Rng rng_;
};

}  // namespace circles::pp
