#include "mc/hitting_time.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/workload.hpp"
#include "baselines/exact_majority_4state.hpp"
#include "core/circles_protocol.hpp"
#include "sim/trial.hpp"

namespace circles::mc {
namespace {

class Epidemic final : public pp::Protocol {
 public:
  std::uint64_t num_states() const override { return 2; }
  std::uint32_t num_colors() const override { return 2; }
  pp::StateId input(pp::ColorId color) const override { return color; }
  pp::OutputSymbol output(pp::StateId state) const override { return state; }
  pp::Transition transition(pp::StateId i, pp::StateId r) const override {
    if (i == 1 || r == 1) return {1, 1};
    return {i, r};
  }
  std::string name() const override { return "epidemic"; }
};

class Oscillator final : public pp::Protocol {
 public:
  std::uint64_t num_states() const override { return 2; }
  std::uint32_t num_colors() const override { return 2; }
  pp::StateId input(pp::ColorId color) const override { return color; }
  pp::OutputSymbol output(pp::StateId state) const override { return state; }
  pp::Transition transition(pp::StateId i, pp::StateId r) const override {
    if (i != r) return {r, i};
    return {i, r};
  }
  std::string name() const override { return "oscillator"; }
};

TEST(HittingTimeTest, EpidemicTwoAgentsIsOneInteraction) {
  Epidemic protocol;
  const std::vector<pp::ColorId> colors{1, 0};
  const auto result = expected_interactions_to_silence(protocol, colors);
  ASSERT_TRUE(result.computed);
  EXPECT_DOUBLE_EQ(result.expected_interactions, 1.0);
}

TEST(HittingTimeTest, EpidemicThreeAgentsHandComputed) {
  // From {1 infected, 2 susceptible}: 4 of 6 ordered pairs infect, then
  // again 4 of 6 — expected 6/4 + 6/4 = 3 interactions.
  Epidemic protocol;
  const std::vector<pp::ColorId> colors{1, 0, 0};
  const auto result = expected_interactions_to_silence(protocol, colors);
  ASSERT_TRUE(result.computed);
  EXPECT_NEAR(result.expected_interactions, 3.0, 1e-12);
  EXPECT_EQ(result.reachable, 3u);
  EXPECT_EQ(result.absorbing, 1u);
}

TEST(HittingTimeTest, AlreadySilentIsZero) {
  Epidemic protocol;
  const std::vector<pp::ColorId> colors{0, 0, 0};
  const auto result = expected_interactions_to_silence(protocol, colors);
  ASSERT_TRUE(result.computed);
  EXPECT_DOUBLE_EQ(result.expected_interactions, 0.0);
}

TEST(HittingTimeTest, OscillatorHasNoFiniteHittingTime) {
  Oscillator protocol;
  const std::vector<pp::ColorId> colors{0, 1};
  const auto result = expected_interactions_to_silence(protocol, colors);
  EXPECT_FALSE(result.computed);  // singular system: absorption unreachable
}

TEST(HittingTimeTest, CapTruncatesComputation) {
  core::CirclesProtocol protocol(3);
  HittingTimeOptions options;
  options.max_configurations = 5;
  const std::vector<pp::ColorId> colors{0, 0, 1, 2};
  const auto result =
      expected_interactions_to_silence(protocol, colors, options);
  EXPECT_FALSE(result.computed);
}

/// Simulation cross-check: the sample mean of "interactions until the final
/// configuration is reached" (last_change_step + 1) must approach the exact
/// expectation.
void expect_simulation_agrees(const pp::Protocol& protocol,
                              const std::vector<pp::ColorId>& colors,
                              int trials, double tolerance_factor) {
  const auto exact = expected_interactions_to_silence(protocol, colors);
  ASSERT_TRUE(exact.computed);
  ASSERT_GT(exact.expected_interactions, 0.0);

  util::Rng rng(2024);
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    pp::Population population(protocol, colors);
    auto scheduler = pp::make_scheduler(
        pp::SchedulerKind::kUniformRandom,
        static_cast<std::uint32_t>(colors.size()), rng());
    pp::Engine engine;
    const auto run = engine.run(protocol, population, *scheduler);
    EXPECT_TRUE(run.silent);
    total += static_cast<double>(run.last_change_step + 1);
  }
  const double mean = total / trials;
  EXPECT_NEAR(mean, exact.expected_interactions,
              exact.expected_interactions * tolerance_factor)
      << "exact=" << exact.expected_interactions << " simulated=" << mean;
}

TEST(HittingTimeTest, CirclesSimulationMatchesExactExpectation) {
  core::CirclesProtocol protocol(2);
  expect_simulation_agrees(protocol, {0, 0, 0, 1, 1}, 3000, 0.1);
}

TEST(HittingTimeTest, CirclesThreeColorsMatches) {
  core::CirclesProtocol protocol(3);
  expect_simulation_agrees(protocol, {0, 0, 1, 2}, 3000, 0.1);
}

TEST(HittingTimeTest, FourStateMajorityMatches) {
  baselines::ExactMajority4State protocol;
  expect_simulation_agrees(protocol, {0, 0, 0, 1, 1}, 3000, 0.1);
}

TEST(HittingTimeTest, LargerMarginConvergesFasterInExpectation) {
  core::CirclesProtocol protocol(2);
  const auto close = expected_interactions_to_silence(
      protocol, std::vector<pp::ColorId>{0, 0, 0, 1, 1});
  const auto landslide = expected_interactions_to_silence(
      protocol, std::vector<pp::ColorId>{0, 0, 0, 0, 1});
  ASSERT_TRUE(close.computed && landslide.computed);
  EXPECT_GT(close.expected_interactions, landslide.expected_interactions);
}

}  // namespace
}  // namespace circles::mc
