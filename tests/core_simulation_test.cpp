// End-to-end checks of the paper's claims on the Circles protocol:
// Theorem 3.7 (correctness), Theorem 3.4 (stabilization), Lemma 3.3
// (bra-ket invariant) and Lemma 3.6 (schedule-independent decomposition),
// exhaustively for small populations and randomized at larger sizes.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "core/decomposition.hpp"
#include "core/greedy_sets.hpp"
#include "sim/trial.hpp"

namespace circles::core {
namespace {

using analysis::Workload;
using sim::CirclesTrialOutcome;
using sim::TrialOptions;

/// Enumerates all count vectors over k colors summing to n.
void enumerate_counts(std::uint32_t k, std::uint64_t n,
                      std::vector<std::uint64_t>& prefix,
                      const std::function<void(const std::vector<std::uint64_t>&)>& f) {
  if (prefix.size() + 1 == k) {
    prefix.push_back(n);
    f(prefix);
    prefix.pop_back();
    return;
  }
  for (std::uint64_t c = 0; c <= n; ++c) {
    prefix.push_back(c);
    enumerate_counts(k, n - c, prefix, f);
    prefix.pop_back();
  }
}

void for_all_workloads(std::uint32_t k, std::uint64_t n,
                       const std::function<void(const Workload&)>& f) {
  std::vector<std::uint64_t> prefix;
  enumerate_counts(k, n, prefix, [&](const std::vector<std::uint64_t>& counts) {
    Workload w;
    w.counts = counts;
    f(w);
  });
}

void expect_trial_obeys_paper(const CirclesTrialOutcome& outcome,
                              const Workload& workload,
                              const std::string& context) {
  // Theorem 3.4 via the engine: the run reached exact silence.
  EXPECT_TRUE(outcome.trial.run.silent) << context;
  EXPECT_FALSE(outcome.trial.run.budget_exhausted) << context;
  // Lemma 3.3.
  EXPECT_EQ(outcome.circles.braket_invariant_violations, 0u) << context;
  // Theorem 3.4's potential argument.
  EXPECT_EQ(outcome.circles.potential_descent_violations, 0u) << context;
  // Lemma 3.6.
  EXPECT_TRUE(outcome.circles.decomposition_matches) << context;
  // Theorem 3.7 (only meaningful without ties).
  if (workload.winner().has_value()) {
    EXPECT_TRUE(outcome.trial.correct) << context;
    EXPECT_EQ(outcome.trial.consensus,
              std::optional<pp::OutputSymbol>(*workload.winner()))
        << context;
  }
}

TEST(CirclesSimulationTest, ExhaustiveTwoColorsUpToEight) {
  CirclesProtocol protocol(2);
  for (std::uint64_t n = 2; n <= 8; ++n) {
    for_all_workloads(2, n, [&](const Workload& w) {
      if (w.n() < 2) return;
      TrialOptions options;
      options.scheduler = pp::SchedulerKind::kRoundRobin;
      options.seed = 17 * n + w.counts[0];
      const auto outcome = sim::run_circles_trial(protocol, w, options);
      expect_trial_obeys_paper(outcome, w, "k=2 counts=" + w.to_string());
    });
  }
}

TEST(CirclesSimulationTest, ExhaustiveThreeColorsUpToSix) {
  CirclesProtocol protocol(3);
  for (std::uint64_t n = 2; n <= 6; ++n) {
    for_all_workloads(3, n, [&](const Workload& w) {
      if (w.n() < 2) return;
      TrialOptions options;
      options.scheduler = pp::SchedulerKind::kShuffledSweep;
      options.seed = 31 * n + w.counts[0] * 7 + w.counts[1];
      const auto outcome = sim::run_circles_trial(protocol, w, options);
      expect_trial_obeys_paper(outcome, w, "k=3 counts=" + w.to_string());
    });
  }
}

TEST(CirclesSimulationTest, ExhaustiveFourColorsUpToFive) {
  CirclesProtocol protocol(4);
  for (std::uint64_t n = 2; n <= 5; ++n) {
    for_all_workloads(4, n, [&](const Workload& w) {
      if (w.n() < 2) return;
      TrialOptions options;
      options.scheduler = pp::SchedulerKind::kRoundRobin;
      options.seed = 13 * n + w.counts[0] * 5 + w.counts[2];
      const auto outcome = sim::run_circles_trial(protocol, w, options);
      expect_trial_obeys_paper(outcome, w, "k=4 counts=" + w.to_string());
    });
  }
}

TEST(CirclesSimulationTest, TiesStabilizeWithoutDiagonalsOrConsensus) {
  // Lemma 3.6 holds on ties too: the stable multiset has no diagonal, so no
  // winner is ever (re-)announced; the run goes silent without consensus.
  CirclesProtocol protocol(3);
  Workload w;
  w.counts = {3, 3, 1};
  util::Rng rng(3);
  for (const auto kind :
       {pp::SchedulerKind::kRoundRobin, pp::SchedulerKind::kUniformRandom}) {
    TrialOptions options;
    options.scheduler = kind;
    options.seed = rng();
    const auto outcome = sim::run_circles_trial(protocol, w, options);
    EXPECT_TRUE(outcome.trial.run.silent);
    EXPECT_TRUE(outcome.circles.decomposition_matches);
    EXPECT_EQ(outcome.circles.braket_invariant_violations, 0u);
    EXPECT_FALSE(outcome.trial.correct);
  }
}

TEST(CirclesSimulationTest, DecompositionIsScheduleIndependent) {
  // The same counts must produce the *identical* stable bra-ket multiset
  // under every scheduler (Lemma 3.6 makes it a function of the input).
  CirclesProtocol protocol(5);
  Workload w;
  w.counts = {4, 1, 0, 3, 2};
  for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      TrialOptions options;
      options.scheduler = kind;
      options.seed = seed;
      const auto outcome = sim::run_circles_trial(protocol, w, options);
      EXPECT_TRUE(outcome.trial.run.silent) << pp::to_string(kind);
      EXPECT_TRUE(outcome.circles.decomposition_matches)
          << pp::to_string(kind) << " seed=" << seed;
      EXPECT_TRUE(outcome.trial.correct) << pp::to_string(kind);
    }
  }
}

TEST(CirclesSimulationTest, RandomizedMediumPopulations) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.uniform_below(6));
    const std::uint64_t n = 10 + rng.uniform_below(80);
    CirclesProtocol protocol(k);
    const Workload w = analysis::random_unique_winner(rng, n, k);
    TrialOptions options;
    options.seed = rng();
    const auto outcome = sim::run_circles_trial(protocol, w, options);
    expect_trial_obeys_paper(outcome, w,
                             "random k=" + std::to_string(k) +
                                 " counts=" + w.to_string());
  }
}

TEST(CirclesSimulationTest, ScalarEnergyIsNotMonotoneInGeneral) {
  // The paper needs the ordinal potential precisely because Σw can rise
  // during an exchange; confirm we observe such a rise on some workload.
  util::Rng rng(4242);
  std::uint64_t total_increases = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t k = 5 + static_cast<std::uint32_t>(rng.uniform_below(4));
    CirclesProtocol protocol(k);
    const Workload w = analysis::random_unique_winner(rng, 40, k);
    TrialOptions options;
    options.seed = rng();
    const auto outcome = sim::run_circles_trial(protocol, w, options);
    total_increases += outcome.circles.scalar_energy_increases;
  }
  EXPECT_GT(total_increases, 0u);
}

TEST(CirclesSimulationTest, ExchangeCountsArePositiveWithMultipleColors) {
  CirclesProtocol protocol(4);
  Workload w;
  w.counts = {3, 2, 2, 1};
  TrialOptions options;
  options.seed = 9;
  const auto outcome = sim::run_circles_trial(protocol, w, options);
  EXPECT_GT(outcome.circles.ket_exchanges, 0u);
  // Diagonal destructions happen (initial diagonals get broken up).
  EXPECT_GT(outcome.circles.diagonal_destructions, 0u);
}

TEST(CirclesSimulationTest, UniformSingleColorSilentImmediately) {
  CirclesProtocol protocol(3);
  Workload w;
  w.counts = {0, 5, 0};
  TrialOptions options;
  options.seed = 5;
  const auto outcome = sim::run_circles_trial(protocol, w, options);
  EXPECT_TRUE(outcome.trial.run.silent);
  EXPECT_EQ(outcome.circles.ket_exchanges, 0u);
  EXPECT_TRUE(outcome.trial.correct);
  EXPECT_EQ(outcome.trial.run.interactions, 0u);
}

TEST(CirclesSimulationTest, TwoAgentsMinimalPopulation) {
  CirclesProtocol protocol(2);
  Workload w;
  w.counts = {2, 0};
  TrialOptions options;
  options.seed = 1;
  const auto outcome = sim::run_circles_trial(protocol, w, options);
  EXPECT_TRUE(outcome.trial.correct);
}

TEST(CirclesSimulationTest, AdversarialDelaySchedulerStillConverges) {
  // Theorem 3.7 quantifies over all weakly fair schedules — the delaying
  // adversary is weakly fair, so correctness must survive it.
  CirclesProtocol protocol(4);
  Workload w;
  w.counts = {5, 3, 4, 2};
  TrialOptions options;
  options.scheduler = pp::SchedulerKind::kAdversarialDelay;
  options.seed = 77;
  const auto outcome = sim::run_circles_trial(protocol, w, options);
  expect_trial_obeys_paper(outcome, w, "adversarial");
}

TEST(CirclesSimulationTest, PermutedColorIdsPreserveCorrectnessNotWork) {
  // E13's premise: permuting color identities preserves correctness (the
  // winner maps through the permutation) while the number of exchanges may
  // differ because weights depend on numeric distances.
  CirclesProtocol protocol(6);
  util::Rng rng(99);
  const Workload base = analysis::random_unique_winner(rng, 60, 6);
  const Workload permuted = analysis::permute_colors(rng, base);
  TrialOptions options;
  options.seed = 123;
  const auto a = sim::run_circles_trial(protocol, base, options);
  const auto b = sim::run_circles_trial(protocol, permuted, options);
  EXPECT_TRUE(a.trial.correct);
  EXPECT_TRUE(b.trial.correct);
}

TEST(DecompositionCheckTest, DescribeRendersDiff) {
  CirclesProtocol protocol(2);
  const std::vector<pp::StateId> states{protocol.input(0), protocol.input(0)};
  pp::Population pop(protocol.num_states(), states);
  const std::vector<std::uint64_t> wrong_counts{1, 1};
  const auto check = verify_decomposition(pop, protocol, wrong_counts);
  EXPECT_FALSE(check.matches);
  EXPECT_NE(check.describe().find("mismatch"), std::string::npos);
  const std::vector<std::uint64_t> right_counts{2, 0};
  const auto ok = verify_decomposition(pop, protocol, right_counts);
  EXPECT_TRUE(ok.matches);
  EXPECT_EQ(ok.describe(), "decomposition matches");
}

}  // namespace
}  // namespace circles::core
