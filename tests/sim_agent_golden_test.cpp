// Golden pin for agent-array trials: results recorded from fixed seeds on
// every path into the agent engine (RunSpec trials with each agent-only
// feature, and the direct run_trial / run_circles_trial /
// run_trial_keep_population entry points, with and without a recorder).
// Any change to the order in which a trial draws from its RNG stream — the
// color shuffle, the scheduler seed split, the fault-burst draws — or to
// what the instrumentation observes shows up here as a changed fingerprint.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/circles_protocol.hpp"
#include "obs/obs.hpp"
#include "sim/sim.hpp"

namespace circles::sim {
namespace {

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string run_fingerprint(const TrialOutcome& outcome) {
  const pp::RunResult& run = outcome.run;
  std::string out = "interactions=" + std::to_string(run.interactions) +
                    " state_changes=" + std::to_string(run.state_changes) +
                    " last_change_step=" +
                    std::to_string(run.last_change_step) +
                    " silent=" + std::to_string(run.silent ? 1 : 0) +
                    " correct=" + std::to_string(outcome.correct ? 1 : 0) +
                    " outputs=";
  for (std::size_t i = 0; i < run.final_outputs.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(run.final_outputs[i]);
  }
  return out;
}

/// Row count and the sum of every cell, per trace.
std::string trace_fingerprint(const std::vector<obs::TraceTable>& traces) {
  std::string out;
  for (const obs::TraceTable& table : traces) {
    double sum = 0.0;
    for (const double value : table.data) sum += value;
    out += " trace=" + std::to_string(table.num_rows()) + ":" + num(sum);
  }
  return out;
}

std::string record_fingerprint(const TrialRecord& rec) {
  const CirclesStats& circles = rec.circles;
  return run_fingerprint(rec.outcome) +
         " exchanges=" + std::to_string(circles.ket_exchanges) +
         " creations=" + std::to_string(circles.diagonal_creations) +
         " destructions=" + std::to_string(circles.diagonal_destructions) +
         " invariant=" + std::to_string(circles.braket_invariant_violations) +
         " descent=" + std::to_string(circles.potential_descent_violations) +
         " increases=" + std::to_string(circles.scalar_energy_increases) +
         " decomposition=" +
         std::to_string(circles.decomposition_matches ? 1 : 0) +
         " used_states=" + std::to_string(rec.used_states) +
         " stabilization=" + num(rec.stabilization_time) +
         " convergence=" + num(rec.convergence_time) +
         trace_fingerprint(rec.traces);
}

RunSpec circles_spec(std::uint32_t k, std::uint64_t n) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = k;
  spec.n = n;
  return spec;
}

/// A direct trial's recorder: a counts trace and an energy trace.
struct DirectRecorder {
  explicit DirectRecorder(const core::CirclesProtocol& protocol)
      : energy(obs::EnergyTrace::for_circles(protocol)),
        recorder([] {
          obs::RecorderOptions options;
          options.interaction_horizon = pp::EngineOptions{}.max_interactions;
          return options;
        }()) {
    recorder.add(&counts, obs::GridSpec::parse("log:32"));
    recorder.add(&energy, obs::GridSpec::parse("linear:16"));
  }
  std::string fingerprint() {
    std::vector<obs::TraceTable> traces;
    traces.push_back(counts.take_table());
    traces.push_back(energy.take_table());
    return trace_fingerprint(traces);
  }
  obs::CountsTrace counts;
  obs::EnergyTrace energy;
  obs::Recorder recorder;
};

TEST(AgentTrialGoldenTest, SharedBodyKeepsEveryDraw) {
  struct Case {
    const char* name;
    std::string (*run)();
    const char* golden;
  };
  const std::vector<Case> cases{
      {"circles_stats",
       [] {
         RunSpec spec = circles_spec(4, 60);
         spec.circles_stats = true;
         return record_fingerprint(BatchRunner::execute_trial(spec, 101));
       },
       "interactions=11506 state_changes=256 last_change_step=11441 "
       "silent=1 correct=1 outputs=0,0,60,0 exchanges=57 creations=10 "
       "destructions=69 invariant=0 descent=0 increases=14 "
       "decomposition=1 used_states=0 stabilization=0 convergence=0"},
      {"track_used_states with two probes",
       [] {
         RunSpec spec = circles_spec(3, 48);
         spec.track_used_states = true;
         spec.probes.push_back(obs::ProbeSpec::parse("energy@log:32"));
         spec.probes.push_back(obs::ProbeSpec::parse("counts@linear:16"));
         return record_fingerprint(BatchRunner::execute_trial(spec, 202));
       },
       "interactions=6238 state_changes=241 last_change_step=6173 "
       "silent=1 correct=1 outputs=48,0,0 exchanges=0 creations=0 "
       "destructions=0 invariant=0 descent=0 increases=0 decomposition=0 "
       "used_states=18 stabilization=0 convergence=0 trace=15:15368 "
       "trace=2:6334"},
      {"reboot faults with circles_stats and a probe",
       [] {
         RunSpec spec = circles_spec(3, 60);
         spec.reboot_faults = 3;
         spec.circles_stats = true;
         spec.probes.push_back(obs::ProbeSpec::parse("energy@linear:64"));
         return record_fingerprint(BatchRunner::execute_trial(spec, 303));
       },
       "interactions=986 state_changes=31 last_change_step=921 silent=1 "
       "correct=1 outputs=0,60,0 exchanges=39 creations=4 destructions=60 "
       "invariant=50 descent=0 increases=4 decomposition=0 used_states=0 "
       "stabilization=0 convergence=0 trace=5:5546"},
      {"clustered scheduler",
       [] {
         RunSpec spec = circles_spec(3, 90);
         spec.scheduler = pp::SchedulerKind::kClustered;
         spec.clusters = 3;
         spec.bridge = 0.05;
         spec.circles_stats = true;
         return record_fingerprint(BatchRunner::execute_trial(spec, 404));
       },
       "interactions=64563 state_changes=343 last_change_step=64498 "
       "silent=1 correct=1 outputs=0,0,90 exchanges=70 creations=14 "
       "destructions=99 invariant=0 descent=0 increases=14 "
       "decomposition=1 used_states=0 stabilization=0 convergence=0"},
      {"chemical time with a probe",
       [] {
         RunSpec spec = circles_spec(3, 50);
         spec.chemical_time = true;
         spec.probes.push_back(obs::ProbeSpec::parse("counts@log:16"));
         return record_fingerprint(BatchRunner::execute_trial(spec, 505));
       },
       // The discrete part is the same spec's without clock=chemical: the
       // clock draws from its own stream.
       "interactions=1372 state_changes=86 last_change_step=1307 silent=1 "
       "correct=1 outputs=0,50,0 exchanges=0 creations=0 destructions=0 "
       "invariant=0 descent=0 increases=0 decomposition=0 used_states=0 "
       "stabilization=25.543508675413285 convergence=11.238500459219965 "
       "trace=3:2800.5293537601228"},
      {"custom grader",
       [] {
         RunSpec spec = circles_spec(3, 40);
         spec.grader = [](const pp::Protocol& protocol,
                          const analysis::Workload&,
                          std::span<const pp::ColorId> colors,
                          const pp::Population& population,
                          const pp::RunResult& run) {
           // Per-agent verdict: the first agent announces its own input.
           return run.silent &&
                  protocol.output(population.state(0)) == colors[0];
         };
         return record_fingerprint(BatchRunner::execute_trial(spec, 606));
       },
       "interactions=1750 state_changes=101 last_change_step=1685 "
       "silent=1 correct=0 outputs=0,40,0 exchanges=0 creations=0 "
       "destructions=0 invariant=0 descent=0 increases=0 decomposition=0 "
       "used_states=0 stabilization=0 convergence=0"},
      {"scheduler factory",
       [] {
         RunSpec spec = circles_spec(4, 36);
         spec.circles_stats = true;
         spec.scheduler_factory = [](std::uint32_t n, std::uint64_t seed) {
           return pp::make_scheduler(pp::SchedulerKind::kShuffledSweep, n,
                                     seed);
         };
         return record_fingerprint(BatchRunner::execute_trial(spec, 707));
       },
       "interactions=3699 state_changes=142 last_change_step=1179 "
       "silent=1 correct=1 outputs=0,36,0,0 exchanges=29 creations=3 "
       "destructions=38 invariant=0 descent=0 increases=4 decomposition=1 "
       "used_states=0 stabilization=0 convergence=0"},
      {"run_trial",
       [] {
         core::CirclesProtocol protocol(3);
         analysis::Workload workload;
         workload.counts = {14, 11, 7};
         TrialOptions options;
         options.seed = 808;
         return run_fingerprint(run_trial(protocol, workload, options));
       },
       "interactions=837 state_changes=66 last_change_step=772 silent=1 "
       "correct=1 outputs=32,0,0"},
      {"run_trial with a recorder",
       [] {
         core::CirclesProtocol protocol(3);
         analysis::Workload workload;
         workload.counts = {14, 11, 7};
         DirectRecorder direct(protocol);
         TrialOptions options;
         options.seed = 808;
         options.recorder = &direct.recorder;
         const std::string run =
             run_fingerprint(run_trial(protocol, workload, options));
         return run + direct.fingerprint();
       },
       "interactions=837 state_changes=66 last_change_step=772 silent=1 "
       "correct=1 outputs=32,0,0 trace=12:2344 trace=2:1014"},
      {"run_circles_trial",
       [] {
         core::CirclesProtocol protocol(4);
         analysis::Workload workload;
         workload.counts = {12, 10, 9, 5};
         TrialOptions options;
         options.seed = 909;
         options.scheduler = pp::SchedulerKind::kRoundRobin;
         TrialRecord rec;
         const CirclesTrialOutcome outcome =
             run_circles_trial(protocol, workload, options);
         rec.outcome = outcome.trial;
         rec.circles = outcome.circles;
         return record_fingerprint(rec);
       },
       "interactions=2310 state_changes=444 last_change_step=1049 "
       "silent=1 correct=1 outputs=36,0,0,0 exchanges=25 creations=0 "
       "destructions=34 invariant=0 descent=0 increases=1 decomposition=1 "
       "used_states=0 stabilization=0 convergence=0"},
      {"run_circles_trial with a recorder",
       [] {
         core::CirclesProtocol protocol(4);
         analysis::Workload workload;
         workload.counts = {12, 10, 9, 5};
         DirectRecorder direct(protocol);
         TrialOptions options;
         options.seed = 909;
         options.recorder = &direct.recorder;
         const CirclesTrialOutcome outcome =
             run_circles_trial(protocol, workload, options);
         return run_fingerprint(outcome.trial) +
                " exchanges=" +
                std::to_string(outcome.circles.ket_exchanges) +
                " decomposition=" +
                std::to_string(outcome.circles.decomposition_matches ? 1 : 0) +
                direct.fingerprint();
       },
       "interactions=2280 state_changes=137 last_change_step=2215 "
       "silent=1 correct=1 outputs=36,0,0,0 exchanges=33 decomposition=1 "
       "trace=14:6714 trace=2:2515"},
      {"run_trial_keep_population",
       [] {
         core::CirclesProtocol protocol(3);
         analysis::Workload workload;
         workload.counts = {9, 8, 8};
         TrialOptions options;
         options.seed = 1010;
         options.scheduler = pp::SchedulerKind::kAdversarialDelay;
         std::unique_ptr<pp::Population> population;
         std::vector<pp::ColorId> colors;
         const TrialOutcome outcome = run_trial_keep_population(
             protocol, workload, options, {}, std::nullopt, &population,
             &colors);
         std::string out = run_fingerprint(outcome) + " agents=";
         for (const pp::StateId s : population->agents()) {
           out += std::to_string(s) + ',';
         }
         out += " colors=";
         for (const pp::ColorId c : colors) out += std::to_string(c);
         return out;
       },
       "interactions=9401 state_changes=263 last_change_step=4600 "
       "silent=1 correct=1 outputs=25,0,0 "
       "agents=3,18,15,3,18,"
       "3,15,3,15,18,15,18,3,18,15,3,3,18,15,15,3,15,18,0,18, "
       "colors=0210201012120210021101202"},
      {"run_trial_keep_population with a recorder",
       [] {
         core::CirclesProtocol protocol(3);
         analysis::Workload workload;
         workload.counts = {9, 8, 8};
         DirectRecorder direct(protocol);
         TrialOptions options;
         options.seed = 1010;
         options.recorder = &direct.recorder;
         std::unique_ptr<pp::Population> population;
         const TrialOutcome outcome = run_trial_keep_population(
             protocol, workload, options, {}, std::nullopt, &population);
         std::string out = run_fingerprint(outcome) + " agents=";
         for (const pp::StateId s : population->agents()) {
           out += std::to_string(s) + ',';
         }
         return out + direct.fingerprint();
       },
       "interactions=1047 state_changes=56 last_change_step=982 silent=1 "
       "correct=1 outputs=25,0,0 "
       "agents=3,18,15,3,18,"
       "0,15,3,15,18,15,18,3,18,15,3,3,18,15,15,3,15,18,3,18, "
       "trace=13:3473 trace=2:1179"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.run(), c.golden) << c.name;
  }
}

}  // namespace
}  // namespace circles::sim
