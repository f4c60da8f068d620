#include "pp/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "pp/silence.hpp"

namespace circles::pp {
namespace {

/// Records every interaction event.
class InteractionRecorder final : public Monitor {
 public:
  void on_interaction(const InteractionEvent& event,
                      const Population&) override {
    events_.push_back(event);
  }
  const std::vector<InteractionEvent>& events() const { return events_; }

 private:
  std::vector<InteractionEvent> events_;
};

/// Tracks when agent outputs last changed: the step index (+1) of the last
/// output flip, and the number of per-agent flips.
class OutputStabilityMonitor final : public Monitor {
 public:
  void on_start(const Population&, const Protocol& protocol) override {
    protocol_ = &protocol;
  }
  void on_interaction(const InteractionEvent& event,
                      const Population&) override {
    if (!event.changed()) return;
    const bool initiator_flip = protocol_->output(event.initiator_before) !=
                                protocol_->output(event.initiator_after);
    const bool responder_flip = protocol_->output(event.responder_before) !=
                                protocol_->output(event.responder_after);
    if (!initiator_flip && !responder_flip) return;
    last_output_change_ = event.step + 1;
    total_flips_ += (initiator_flip ? 1 : 0) + (responder_flip ? 1 : 0);
  }
  std::uint64_t last_output_change() const { return last_output_change_; }
  std::uint64_t total_output_flips() const { return total_flips_; }

 private:
  const Protocol* protocol_ = nullptr;
  std::uint64_t last_output_change_ = 0;
  std::uint64_t total_flips_ = 0;
};

/// Counts changing and null interactions.
class StateChangeCounter final : public Monitor {
 public:
  void on_interaction(const InteractionEvent& event,
                      const Population&) override {
    ++(event.changed() ? changes_ : nulls_);
  }
  std::uint64_t changes() const { return changes_; }
  std::uint64_t nulls() const { return nulls_; }

 private:
  std::uint64_t changes_ = 0;
  std::uint64_t nulls_ = 0;
};

/// Epidemic protocol: state 1 infects state 0; silent once uniform.
class EpidemicProtocol final : public Protocol {
 public:
  std::uint64_t num_states() const override { return 2; }
  std::uint32_t num_colors() const override { return 2; }
  StateId input(ColorId color) const override { return color; }
  OutputSymbol output(StateId state) const override { return state; }
  Transition transition(StateId initiator, StateId responder) const override {
    if (initiator == 1 || responder == 1) return {1, 1};
    return {initiator, responder};
  }
  std::string name() const override { return "epidemic"; }
};

/// Never silent: the pair (0,1) flips both states forever.
class OscillatorProtocol final : public Protocol {
 public:
  std::uint64_t num_states() const override { return 2; }
  std::uint32_t num_colors() const override { return 2; }
  StateId input(ColorId color) const override { return color; }
  OutputSymbol output(StateId state) const override { return state; }
  Transition transition(StateId initiator, StateId responder) const override {
    if (initiator != responder) return {responder, initiator};
    return {initiator, responder};
  }
  std::string name() const override { return "oscillator"; }
};

std::vector<ColorId> colors_of(std::initializer_list<ColorId> list) {
  return std::vector<ColorId>(list);
}

TEST(SilenceTest, DetectsSilentAndNonSilentConfigurations) {
  EpidemicProtocol protocol;
  {
    Population pop(protocol, colors_of({0, 0, 0}));
    EXPECT_TRUE(is_silent(pop, protocol));
  }
  {
    Population pop(protocol, colors_of({1, 1}));
    EXPECT_TRUE(is_silent(pop, protocol));
  }
  {
    Population pop(protocol, colors_of({0, 1}));
    EXPECT_FALSE(is_silent(pop, protocol));
  }
}

TEST(SilenceTest, SameStatePairNeedsTwoAgents) {
  // A protocol where (s, s) changes states but only one agent holds s.
  class SelfPair final : public Protocol {
   public:
    std::uint64_t num_states() const override { return 2; }
    std::uint32_t num_colors() const override { return 2; }
    StateId input(ColorId color) const override { return color; }
    OutputSymbol output(StateId state) const override { return state; }
    Transition transition(StateId i, StateId r) const override {
      if (i == 0 && r == 0) return {1, 1};
      return {i, r};
    }
    std::string name() const override { return "selfpair"; }
  } protocol;
  {
    Population pop(protocol, colors_of({0, 1}));
    EXPECT_TRUE(is_silent(pop, protocol));  // only one agent in state 0
  }
  {
    Population pop(protocol, colors_of({0, 0}));
    EXPECT_FALSE(is_silent(pop, protocol));
  }
}

TEST(EngineTest, EpidemicReachesSilenceUnderAllSchedulers) {
  EpidemicProtocol protocol;
  for (const SchedulerKind kind : kAllSchedulerKinds) {
    std::vector<ColorId> colors(16, 0);
    colors[3] = 1;
    Population pop(protocol, colors);
    auto sched = make_scheduler(kind, 16, 77, &protocol);
    Engine engine;
    const RunResult result = engine.run(protocol, pop, *sched);
    EXPECT_TRUE(result.silent) << to_string(kind);
    EXPECT_FALSE(result.budget_exhausted) << to_string(kind);
    EXPECT_TRUE(pop.output_consensus(protocol, 1)) << to_string(kind);
    EXPECT_EQ(result.state_changes, 15u) << to_string(kind);
    EXPECT_TRUE(result.consensus_on(1)) << to_string(kind);
  }
}

TEST(EngineTest, InitiallySilentConfigurationStopsImmediately) {
  EpidemicProtocol protocol;
  Population pop(protocol, colors_of({0, 0, 0, 0}));
  auto sched = make_scheduler(SchedulerKind::kUniformRandom, 4, 1);
  Engine engine;
  const RunResult result = engine.run(protocol, pop, *sched);
  EXPECT_TRUE(result.silent);
  EXPECT_EQ(result.interactions, 0u);
}

TEST(EngineTest, BudgetExhaustionReported) {
  OscillatorProtocol protocol;
  Population pop(protocol, colors_of({0, 1}));
  auto sched = make_scheduler(SchedulerKind::kUniformRandom, 2, 5);
  EngineOptions options;
  options.max_interactions = 1000;
  Engine engine(options);
  const RunResult result = engine.run(protocol, pop, *sched);
  EXPECT_FALSE(result.silent);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.interactions, 1000u);
}

TEST(EngineTest, StopWhenSilentDisabledRunsToBudget) {
  EpidemicProtocol protocol;
  Population pop(protocol, colors_of({0, 1, 0, 0}));
  auto sched = make_scheduler(SchedulerKind::kUniformRandom, 4, 5);
  EngineOptions options;
  options.max_interactions = 5000;
  options.stop_when_silent = false;
  Engine engine(options);
  const RunResult result = engine.run(protocol, pop, *sched);
  EXPECT_EQ(result.interactions, 5000u);
  EXPECT_TRUE(result.silent);  // exact post-hoc check still reports silence
}

TEST(EngineTest, MonitorsObserveAllInteractions) {
  EpidemicProtocol protocol;
  Population pop(protocol, colors_of({0, 0, 1, 0}));
  auto sched = make_scheduler(SchedulerKind::kRoundRobin, 4, 0);
  InteractionRecorder recorder;
  StateChangeCounter counter;
  std::array<Monitor*, 2> monitors{&recorder, &counter};
  Engine engine;
  const RunResult result = engine.run(
      protocol, pop, *sched,
      std::span<Monitor* const>(monitors.data(), monitors.size()));
  EXPECT_EQ(recorder.events().size(), result.interactions);
  EXPECT_EQ(counter.changes(), result.state_changes);
  EXPECT_EQ(counter.changes() + counter.nulls(), result.interactions);
  EXPECT_EQ(counter.changes(), 3u);  // three agents to infect
}

TEST(EngineTest, EventBeforeAfterStatesConsistent) {
  EpidemicProtocol protocol;
  Population pop(protocol, colors_of({1, 0}));
  auto sched = make_scheduler(SchedulerKind::kRoundRobin, 2, 0);
  InteractionRecorder recorder;
  std::array<Monitor*, 1> monitors{&recorder};
  Engine engine;
  engine.run(protocol, pop, *sched,
             std::span<Monitor* const>(monitors.data(), monitors.size()));
  ASSERT_FALSE(recorder.events().empty());
  const InteractionEvent& first = recorder.events().front();
  EXPECT_EQ(first.step, 0u);
  EXPECT_TRUE(first.changed());
  const Transition tr =
      protocol.transition(first.initiator_before, first.responder_before);
  EXPECT_EQ(tr.initiator, first.initiator_after);
  EXPECT_EQ(tr.responder, first.responder_after);
}

TEST(EngineTest, OutputStabilityMonitorTracksLastFlip) {
  EpidemicProtocol protocol;
  Population pop(protocol, colors_of({1, 0, 0}));
  auto sched = make_scheduler(SchedulerKind::kRoundRobin, 3, 0);
  OutputStabilityMonitor stability;
  std::array<Monitor*, 1> monitors{&stability};
  Engine engine;
  const RunResult result = engine.run(
      protocol, pop, *sched,
      std::span<Monitor* const>(monitors.data(), monitors.size()));
  EXPECT_GT(stability.last_output_change(), 0u);
  EXPECT_LE(stability.last_output_change(), result.last_change_step + 1);
  EXPECT_EQ(stability.total_output_flips(), 2u);
}

TEST(EngineTest, RunProtocolConvenienceWrapper) {
  EpidemicProtocol protocol;
  auto sched = make_scheduler(SchedulerKind::kShuffledSweep, 8, 21);
  std::vector<ColorId> colors(8, 0);
  colors[0] = 1;
  const RunResult result = run_protocol(protocol, colors, *sched);
  EXPECT_TRUE(result.silent);
  EXPECT_TRUE(result.consensus_on(1));
}

TEST(RunResultTest, ConsensusOnHelper) {
  RunResult r;
  r.final_outputs = {0, 5, 0};
  EXPECT_TRUE(r.consensus_on(1));
  EXPECT_FALSE(r.consensus_on(0));
  EXPECT_FALSE(r.consensus_on(9));
  r.final_outputs = {2, 5, 0};
  EXPECT_FALSE(r.consensus_on(1));
}

}  // namespace
}  // namespace circles::pp
