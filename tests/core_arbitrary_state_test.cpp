// Theorem 3.4 is initialization-free: the ordinal potential argument never
// uses the input map, so Circles stabilizes (finitely many exchanges, then
// silence) from ARBITRARY states — including states no honest execution
// could produce (mismatched bra/ket multisets, lying out fields).
// Correctness (Theorem 3.7) and the decomposition (Lemma 3.6) are NOT
// expected from such states — Lemma 3.3's conservation is an initialization
// property — but the machine must still grind to a provable halt.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/circles_protocol.hpp"
#include "core/invariants.hpp"
#include "extensions/tie_report.hpp"
#include "extensions/unordered_circles.hpp"
#include "obs/obs.hpp"
#include "pp/engine.hpp"
#include "pp/scheduler.hpp"
#include "util/rng.hpp"

namespace circles::core {
namespace {

class ArbitraryStateSweep
    : public testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(ArbitraryStateSweep, StabilizesFromAnyConfiguration) {
  const auto [k, seed] = GetParam();
  CirclesProtocol protocol(k);
  util::Rng rng(seed);
  const std::uint32_t n = 24;

  std::vector<pp::StateId> states(n);
  for (auto& s : states) {
    s = static_cast<pp::StateId>(rng.uniform_below(protocol.num_states()));
  }
  pp::Population population(protocol.num_states(), states);

  // The event-level monitor and the obs:: probe pipeline observe the same
  // run: the RecorderMonitor feeds the count-level probes, and the engine
  // sees one monitor list holding both.
  CirclesBraKetView view(protocol);
  PotentialDescentMonitor potential(view);
  obs::EnergyTrace energy = obs::EnergyTrace::for_circles(protocol);

  obs::RecorderOptions recorder_options;
  recorder_options.interaction_horizon = pp::EngineOptions{}.max_interactions;
  obs::Recorder recorder(recorder_options);
  recorder.add(&energy, obs::GridSpec::parse("log:64"));
  obs::RecorderMonitor recorder_monitor(recorder);
  std::array<pp::Monitor*, 2> monitors{&recorder_monitor, &potential};

  auto scheduler =
      pp::make_scheduler(pp::SchedulerKind::kUniformRandom, n, rng());
  pp::Engine engine;
  const auto result = engine.run(
      protocol, population, *scheduler,
      std::span<pp::Monitor* const>(monitors.data(), monitors.size()));

  // Stabilization and the potential mechanism hold unconditionally.
  EXPECT_TRUE(result.silent);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(potential.descent_violations(), 0u);
  // The count pipeline observed the same run: at least the initial and
  // final configurations, strictly increasing interaction indices.
  const obs::TraceTable& trace = *energy.table();
  ASSERT_GE(trace.num_rows(), 1u);
  for (std::size_t row = 1; row < trace.num_rows(); ++row) {
    EXPECT_GT(trace.at(row, 0), trace.at(row - 1, 0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArbitraryStateSweep,
    testing::Combine(testing::Values(2u, 3u, 5u, 9u),
                     testing::Values(1ull, 2ull, 3ull)),
    [](const testing::TestParamInfo<std::tuple<std::uint32_t, std::uint64_t>>&
           info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ArbitraryStateTest, AdversarialSchedulerAlsoHalts) {
  CirclesProtocol protocol(4);
  util::Rng rng(99);
  std::vector<pp::StateId> states(12);
  for (auto& s : states) {
    s = static_cast<pp::StateId>(rng.uniform_below(protocol.num_states()));
  }
  pp::Population population(protocol.num_states(), states);
  auto scheduler = pp::make_scheduler(pp::SchedulerKind::kAdversarialDelay, 12,
                                      rng(), &protocol);
  pp::Engine engine;
  const auto result = engine.run(protocol, population, *scheduler);
  EXPECT_TRUE(result.silent);
}

TEST(ArbitraryStateTest, TieReportStabilizesFromAnyConfiguration) {
  // The retractor layer inherits initialization-freeness: exchanges are
  // finite regardless, retractors either meet a diagonal (cleared) or no
  // diagonal survives (they freeze everyone at TIE).
  ext::TieReportProtocol protocol(4);
  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<pp::StateId> states(16);
    for (auto& s : states) {
      s = static_cast<pp::StateId>(rng.uniform_below(protocol.num_states()));
    }
    pp::Population population(protocol.num_states(), states);
    auto scheduler =
        pp::make_scheduler(pp::SchedulerKind::kUniformRandom, 16, rng());
    pp::Engine engine;
    const auto result = engine.run(protocol, population, *scheduler);
    EXPECT_TRUE(result.silent) << "trial " << trial;
  }
}

TEST(ArbitraryStateTest, UnorderedCirclesStabilizesFromAnyConfiguration) {
  ext::UnorderedCirclesProtocol protocol(3);
  util::Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<pp::StateId> states(14);
    for (auto& s : states) {
      s = static_cast<pp::StateId>(rng.uniform_below(protocol.num_states()));
    }
    pp::Population population(protocol.num_states(), states);
    auto scheduler =
        pp::make_scheduler(pp::SchedulerKind::kUniformRandom, 14, rng());
    pp::Engine engine;
    const auto result = engine.run(protocol, population, *scheduler);
    EXPECT_TRUE(result.silent) << "trial " << trial;
  }
}

TEST(ArbitraryStateTest, AllSameBraKetIsSilentModuloOutputs) {
  // n agents all holding ⟨1|2⟩ with differing outs: no exchange can fire
  // (identical bra-kets) and no diagonal exists, so the configuration is
  // silent immediately — outputs simply disagree forever.
  CirclesProtocol protocol(3);
  std::vector<pp::StateId> states{protocol.encode({1, 2}, 0),
                                  protocol.encode({1, 2}, 1),
                                  protocol.encode({1, 2}, 2)};
  pp::Population population(protocol.num_states(), states);
  auto scheduler = pp::make_scheduler(pp::SchedulerKind::kRoundRobin, 3, 0);
  pp::Engine engine;
  const auto result = engine.run(protocol, population, *scheduler);
  EXPECT_TRUE(result.silent);
  EXPECT_EQ(result.interactions, 0u);
}

}  // namespace
}  // namespace circles::core
