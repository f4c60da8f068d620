#include "sim/trial.hpp"

#include <gtest/gtest.h>

#include "baselines/exact_majority_4state.hpp"
#include "core/circles_protocol.hpp"

namespace circles::sim {
namespace {

TEST(RunTrialTest, GradesCorrectRun) {
  core::CirclesProtocol protocol(3);
  analysis::Workload w;
  w.counts = {4, 2, 1};
  TrialOptions options;
  options.seed = 11;
  const TrialOutcome outcome = run_trial(protocol, w, options);
  EXPECT_TRUE(outcome.run.silent);
  EXPECT_TRUE(outcome.correct);
  EXPECT_EQ(outcome.expected_winner, pp::ColorId{0});
  EXPECT_EQ(outcome.consensus, std::optional<pp::OutputSymbol>(0));
}

TEST(RunTrialTest, ExpectedSymbolOverride) {
  core::CirclesProtocol protocol(2);
  analysis::Workload w;
  w.counts = {3, 1};
  TrialOptions options;
  options.seed = 2;
  // Grade against the wrong symbol: the run is fine but "incorrect".
  const TrialOutcome outcome = run_trial(protocol, w, options, {}, 1u);
  EXPECT_TRUE(outcome.run.silent);
  EXPECT_FALSE(outcome.correct);
  EXPECT_EQ(outcome.consensus, std::optional<pp::OutputSymbol>(0));
}

TEST(RunTrialTest, DeterministicUnderSeed) {
  core::CirclesProtocol protocol(4);
  analysis::Workload w;
  w.counts = {4, 3, 2, 1};
  TrialOptions options;
  options.seed = 33;
  const TrialOutcome a = run_trial(protocol, w, options);
  const TrialOutcome b = run_trial(protocol, w, options);
  EXPECT_EQ(a.run.interactions, b.run.interactions);
  EXPECT_EQ(a.run.state_changes, b.run.state_changes);
}

TEST(RunTrialTest, SchedulerSelectionApplies) {
  core::CirclesProtocol protocol(2);
  analysis::Workload w;
  w.counts = {5, 3};
  TrialOptions options;
  options.scheduler = pp::SchedulerKind::kRoundRobin;
  options.seed = 4;
  const TrialOutcome outcome = run_trial(protocol, w, options);
  EXPECT_TRUE(outcome.correct);
}

TEST(RunCirclesTrialTest, PopulatesInstrumentation) {
  core::CirclesProtocol protocol(4);
  analysis::Workload w;
  w.counts = {4, 3, 2, 1};
  TrialOptions options;
  options.seed = 5;
  const CirclesTrialOutcome outcome = run_circles_trial(protocol, w, options);
  EXPECT_TRUE(outcome.trial.correct);
  EXPECT_GT(outcome.circles.ket_exchanges, 0u);
  EXPECT_EQ(outcome.circles.braket_invariant_violations, 0u);
  EXPECT_EQ(outcome.circles.potential_descent_violations, 0u);
  EXPECT_TRUE(outcome.circles.decomposition_matches);
}

TEST(RunCirclesTrialTest, ExchangeCountBoundedByStateChanges) {
  core::CirclesProtocol protocol(3);
  analysis::Workload w;
  w.counts = {5, 4, 3};
  TrialOptions options;
  options.seed = 6;
  const CirclesTrialOutcome outcome = run_circles_trial(protocol, w, options);
  EXPECT_LE(outcome.circles.ket_exchanges, outcome.trial.run.state_changes);
}

TEST(RunTrialTest, WorksWithBaselineProtocols) {
  baselines::ExactMajority4State protocol;
  analysis::Workload w;
  w.counts = {6, 3};
  TrialOptions options;
  options.seed = 7;
  const TrialOutcome outcome = run_trial(protocol, w, options);
  EXPECT_TRUE(outcome.correct);
}

TEST(RunTrialDeathTest, WorkloadProtocolColorMismatch) {
  core::CirclesProtocol protocol(3);
  analysis::Workload w;
  w.counts = {1, 1};  // k = 2 workload against k = 3 protocol
  TrialOptions options;
  EXPECT_DEATH(run_trial(protocol, w, options), "does not match");
}

}  // namespace
}  // namespace circles::sim
