#include "crn/gillespie.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/workload.hpp"
#include "baselines/approx_majority_3state.hpp"
#include "core/circles_protocol.hpp"
#include "kernel/compiled_protocol.hpp"
#include "obs/obs.hpp"
#include "sim/sim.hpp"

namespace circles::crn {
namespace {

/// A chemical-time trial through sim::AgentTrial, the body every
/// clock=chemical RunSpec trial runs.
struct ChemicalRun {
  pp::RunResult run;
  double now = 0.0;
  double stabilization_time = 0.0;
  double convergence_time = 0.0;
};

ChemicalRun run_chemical(const pp::Protocol& protocol,
                         const analysis::Workload& workload,
                         std::uint64_t seed) {
  sim::TrialOptions options;
  options.seed = seed;
  options.chemical_time = true;
  sim::AgentTrial trial(protocol, workload, options);
  ChemicalRun out;
  out.run = trial.run(options.engine);
  out.now = trial.clock()->now();
  out.stabilization_time = trial.clock()->last_change_time();
  out.convergence_time = trial.clock()->last_output_change_time();
  return out;
}

TEST(GillespieTest, ClockAdvancesMonotonically) {
  core::CirclesProtocol protocol(3);
  util::Rng rng(1);
  const analysis::Workload w = analysis::random_unique_winner(rng, 20, 3);
  const ChemicalRun result = run_chemical(protocol, w, 7);
  EXPECT_TRUE(result.run.silent);
  EXPECT_GT(result.stabilization_time, 0.0);
  EXPECT_GT(result.convergence_time, 0.0);
  EXPECT_LE(result.convergence_time, result.stabilization_time);
  EXPECT_LE(result.stabilization_time, result.now);
}

TEST(GillespieTest, DeterministicUnderSeed) {
  core::CirclesProtocol protocol(2);
  analysis::Workload w;
  w.counts = {3, 2};
  const ChemicalRun a = run_chemical(protocol, w, 42);
  const ChemicalRun b = run_chemical(protocol, w, 42);
  EXPECT_EQ(a.run.interactions, b.run.interactions);
  EXPECT_DOUBLE_EQ(a.stabilization_time, b.stabilization_time);
  EXPECT_DOUBLE_EQ(a.now, b.now);
}

TEST(GillespieTest, JumpChainMatchesDiscreteEngineOutcome) {
  // The embedded discrete chain is the uniform scheduler, so the final
  // answer must be the plurality winner, like any uniform run.
  core::CirclesProtocol protocol(4);
  util::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const analysis::Workload w = analysis::random_unique_winner(rng, 16, 4);
    const ChemicalRun result = run_chemical(protocol, w, rng());
    EXPECT_TRUE(result.run.silent);
    EXPECT_TRUE(result.run.consensus_on(*w.winner())) << w.to_string();
  }
}

TEST(GillespieTest, ParallelTimeTracksChemicalTime) {
  // Chemical time to a fixed number of interactions concentrates around
  // interactions / (n-1); parallel time uses interactions / n. The two
  // clocks must agree within a modest factor for large-ish runs.
  core::CirclesProtocol protocol(6);
  util::Rng rng(9);
  const analysis::Workload w = analysis::random_unique_winner(rng, 100, 6);
  const ChemicalRun result = run_chemical(protocol, w, rng());
  ASSERT_TRUE(result.run.silent);
  const double chem = result.stabilization_time;
  const double para =
      static_cast<double>(result.run.last_change_step + 1) / 100.0;
  EXPECT_GT(chem, 0.2 * para);
  EXPECT_LT(chem, 5.0 * para);
}

TEST(ChemicalClockTest, DiscreteRunMatchesTheSpecWithoutTheClock) {
  // clock=chemical attaches a clock with its own stream to the one agent
  // trial body, so every discrete result is the same spec's without it,
  // under whatever scheduler the spec names.
  for (const char* text :
       {"circles(k=3) n=40 workload=unique scheduler=uniform trials=1",
        "circles(k=3) n=40 workload=unique scheduler=clustered clusters=2 "
        "bridge=0.001 trials=1",
        "circles(k=3) n=40 workload=unique scheduler=round_robin trials=1",
        "circles(k=3) n=40 workload=unique faults=2 burst_min=2000 "
        "burst_span=0 trace=counts@linear:64 trials=1"}) {
    SCOPED_TRACE(text);
    const sim::RunSpec discrete = sim::RunSpec::parse(text);
    sim::RunSpec chemical = discrete;
    chemical.chemical_time = true;
    const sim::TrialRecord a = sim::BatchRunner::execute_trial(discrete, 5);
    const sim::TrialRecord b = sim::BatchRunner::execute_trial(chemical, 5);
    const pp::RunResult& ra = a.outcome.run;
    const pp::RunResult& rb = b.outcome.run;
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.state_changes, rb.state_changes);
    EXPECT_EQ(ra.last_change_step, rb.last_change_step);
    EXPECT_EQ(ra.final_outputs, rb.final_outputs);
    EXPECT_EQ(ra.silent, rb.silent);
    EXPECT_EQ(ra.budget_exhausted, rb.budget_exhausted);
    EXPECT_EQ(a.outcome.correct, b.outcome.correct);
    EXPECT_EQ(a.outcome.consensus, b.outcome.consensus);
    EXPECT_EQ(a.stabilization_time, 0.0);
    EXPECT_GT(b.stabilization_time, 0.0);
    if (discrete.reboot_faults == 0) continue;

    // The clock keeps running across the fault bursts: the recorder's last
    // row, at the end of the final run, sits after both 2000-interaction
    // bursts, and its chemical time covers every interaction so far.
    ASSERT_EQ(b.traces.size(), 1u);
    const obs::TraceTable& trace = b.traces[0];
    const std::vector<double> times =
        trace.column(trace.column_index("chemical_time"));
    ASSERT_GT(times.size(), 2u);
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    EXPECT_GE(times.back(), b.stabilization_time);
    const double total = static_cast<double>(
        2 * discrete.fault_burst_min + rb.interactions);
    EXPECT_EQ(trace.column(trace.column_index("interactions")).back(), total);
    const double expected = total / 39.0;  // rate n − 1
    EXPECT_GT(times.back(), 0.8 * expected);
    EXPECT_LT(times.back(), 1.25 * expected);
  }
}

TEST(ReactionEnumerationTest, ApproxMajorityHasTheTextbookNetwork) {
  baselines::ApproxMajority3State protocol;
  const auto rxns = reactions(protocol);
  // X+Y -> X+B, Y+X -> Y+B, X+B -> X+X, B+X -> X+X, Y+B -> Y+Y, B+Y -> Y+Y.
  EXPECT_EQ(rxns.size(), 6u);
  std::vector<std::string> rendered;
  for (const auto& r : rxns) rendered.push_back(r.to_string(protocol));
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "X + Y -> X + B"),
            rendered.end());
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "X + B -> X + X"),
            rendered.end());
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "B + Y -> Y + Y"),
            rendered.end());
}

TEST(ReactionEnumerationTest, InputRestrictionShrinksTheNetwork) {
  core::CirclesProtocol protocol(4);
  // Only colors 0 and 1 in play: the closure cannot mention color 2/3 kets.
  const std::vector<pp::ColorId> inputs{0, 1};
  const auto restricted = reactions(protocol, inputs);
  const auto full = reactions(protocol);
  EXPECT_LT(restricted.size(), full.size());
  for (const auto& r : restricted) {
    for (const pp::StateId s : {r.in_a, r.in_b, r.out_a, r.out_b}) {
      const auto f = protocol.decode(s);
      EXPECT_LT(f.braket.bra, 2u);
      EXPECT_LT(f.braket.ket, 2u);
    }
  }
}

TEST(ReactionEnumerationTest, NullTransitionsExcluded) {
  core::CirclesProtocol protocol(2);
  for (const auto& r : reactions(protocol)) {
    EXPECT_FALSE(r.in_a == r.out_a && r.in_b == r.out_b);
  }
}

TEST(ExponentialClockMonitorTest, MeanInterArrivalMatchesRate) {
  // n agents => rate n-1; over many interactions the empirical mean
  // inter-collision time approaches 1/(n-1).
  core::CirclesProtocol protocol(2);
  const std::uint32_t n = 11;  // rate 10
  std::vector<pp::ColorId> colors(n, 0);
  colors[0] = 1;  // some activity, though the clock ticks on null steps too
  util::Rng rng(3);
  pp::Population population(protocol, colors);
  auto scheduler =
      pp::make_scheduler(pp::SchedulerKind::kUniformRandom, n, rng());
  const kernel::CompiledProtocol kernel(protocol);
  ExponentialClockMonitor clock(rng(), kernel);
  pp::Monitor* monitors[] = {&clock};
  pp::EngineOptions options;
  options.max_interactions = 20000;
  options.stop_when_silent = false;
  pp::Engine engine(options);
  engine.run(kernel, population, *scheduler,
             std::span<pp::Monitor* const>(monitors, 1));
  const double mean_gap = clock.now() / 20000.0;
  EXPECT_NEAR(mean_gap, 1.0 / 10.0, 0.01);
}

}  // namespace
}  // namespace circles::crn
