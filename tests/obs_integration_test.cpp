// End-to-end observation: probes attached through RunSpec on every backend,
// bitwise reproducibility, agent-vs-dense agreement on the energy descent,
// chemical-time cadence, and the BatchRunner's split validation messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "core/invariants.hpp"
#include "obs/obs.hpp"
#include "sim/sim.hpp"

namespace circles {
namespace {

sim::RunSpec energy_spec(sim::EngineKind backend, std::uint32_t k,
                         std::uint64_t n, std::uint32_t trials,
                         std::uint64_t seed) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = k;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.backend = backend;
  spec.probes.push_back(obs::ProbeSpec::parse("energy@log:32"));
  return spec;
}

TEST(ObsIntegrationTest, EnergyTraceBitwiseIdenticalWithKernelOnAndOff) {
  // The engines produce bitwise-identical runs with the kernel's dense
  // table on (the BatchRunner's per-spec kernel) or off (a forced-sparse
  // kernel), and probes never touch the RNG streams — so the recorded
  // trajectories must be byte-for-byte equal, on the agent AND both dense
  // backends.
  kernel::CompileOptions sparse_options;
  sparse_options.max_dense_entries = 0;
  for (const sim::EngineKind backend :
       {sim::EngineKind::kAgentArray, sim::EngineKind::kDense,
        sim::EngineKind::kDenseBatched}) {
    const sim::RunSpec spec = energy_spec(backend, 3, 80, 3, 11);
    const auto result_on = sim::BatchRunner().run_one(spec);
    ASSERT_EQ(result_on.kernel_stats.kind, kernel::TableKind::kDense);
    ASSERT_EQ(result_on.trials.size(), spec.trials);
    const sim::PreparedSpec sparse(spec, sim::ProtocolRegistry::global(),
                                   nullptr, nullptr, sparse_options);
    ASSERT_EQ(sparse.kernel().kind(), kernel::TableKind::kSparse);
    for (std::uint32_t t = 0; t < spec.trials; ++t) {
      const sim::TrialRecord off =
          sparse.run_trial(sim::trial_seed(*spec.seed, t));
      EXPECT_EQ(result_on.trials[t].traces.at(0), off.traces.at(0))
          << sim::to_string(backend) << " trial " << t;
    }
  }
}

TEST(ObsIntegrationTest, ProbesDoNotPerturbTheRun) {
  sim::RunSpec plain;
  plain.protocol = "circles";
  plain.params.k = 3;
  plain.n = 100;
  plain.trials = 4;
  plain.seed = 7;
  sim::RunSpec probed = plain;
  probed.probes.push_back(obs::ProbeSpec::parse("energy@log:16"));
  probed.probes.push_back(obs::ProbeSpec::parse("counts@linear:8"));
  for (const sim::EngineKind backend :
       {sim::EngineKind::kAgentArray, sim::EngineKind::kDenseBatched}) {
    plain.backend = backend;
    probed.backend = backend;
    const auto a = sim::BatchRunner().run_one(plain);
    const auto b = sim::BatchRunner().run_one(probed);
    for (std::size_t t = 0; t < a.trials.size(); ++t) {
      EXPECT_EQ(a.trials[t].outcome.run.interactions,
                b.trials[t].outcome.run.interactions);
      EXPECT_EQ(a.trials[t].outcome.run.state_changes,
                b.trials[t].outcome.run.state_changes);
      EXPECT_EQ(a.trials[t].outcome.run.final_outputs,
                b.trials[t].outcome.run.final_outputs);
    }
  }
}

TEST(ObsIntegrationTest, AgentAndDenseEnergyDescentAgree) {
  // Shared spec seed -> identical per-trial workloads on both backends.
  // Trajectories differ, but the initial energy is determined by the
  // workload, the final energy by the Lemma 3.6 decomposition, and the
  // median descent curves must agree within a loose stochastic tolerance.
  const std::uint32_t trials = 6;
  const auto agent = sim::BatchRunner().run_one(
      energy_spec(sim::EngineKind::kAgentArray, 4, 300, trials, 21));
  const auto dense = sim::BatchRunner().run_one(
      energy_spec(sim::EngineKind::kDenseBatched, 4, 300, trials, 21));

  double x_max = 1e300;
  for (const auto* r : {&agent, &dense}) {
    double backend_max = 0.0;
    for (const auto& rec : r->trials) {
      const obs::TraceTable& trace = rec.traces.at(0);
      backend_max = std::max(backend_max, trace.at(trace.num_rows() - 1, 0));
    }
    x_max = std::min(x_max, backend_max);
  }

  obs::EnvelopeOptions options;
  options.points = 24;
  options.spacing = obs::GridSpec::Spacing::kLog;
  options.x_max = x_max;
  options.exclude_columns = {"chemical_time"};
  const auto envelope_of = [&](const sim::SpecResult& r) {
    std::vector<obs::TraceTable> traces;
    for (const auto& rec : r.trials) traces.push_back(rec.traces.at(0));
    return obs::envelope(traces, options);
  };
  const obs::TraceTable agent_env = envelope_of(agent);
  const obs::TraceTable dense_env = envelope_of(dense);

  const std::size_t col = agent_env.column_index("total_energy_p50");
  ASSERT_EQ(agent_env.num_rows(), dense_env.num_rows());
  for (std::size_t row = 0; row < agent_env.num_rows(); ++row) {
    const double a = agent_env.at(row, col);
    const double d = dense_env.at(row, col);
    const double rel = std::abs(a - d) / std::max(a, d);
    EXPECT_LT(rel, 0.4) << "row " << row << ": agent " << a << " vs dense "
                        << d;
  }

  // Endpoints are deterministic given the workload: exact equality.
  for (std::uint32_t t = 0; t < trials; ++t) {
    const obs::TraceTable& at = agent.trials[t].traces.at(0);
    const obs::TraceTable& dt = dense.trials[t].traces.at(0);
    const std::size_t e = at.column_index("total_energy");
    EXPECT_EQ(at.at(0, e), dt.at(0, e)) << "initial energy, trial " << t;
    EXPECT_EQ(at.at(at.num_rows() - 1, e), dt.at(dt.num_rows() - 1, e))
        << "final energy, trial " << t;
  }
}

TEST(ObsIntegrationTest, ChemicalTimeCadenceOnGillespie) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 60;
  spec.trials = 3;
  spec.seed = 5;
  spec.chemical_time = true;
  spec.probes.push_back(obs::ProbeSpec::parse("counts@log:24"));
  spec.probes.push_back(obs::ProbeSpec::parse("convergence@log:24"));
  const auto result = sim::BatchRunner().run_one(spec);

  for (const auto& rec : result.trials) {
    const obs::TraceTable& trace = rec.traces.at(0);
    ASSERT_GE(trace.num_rows(), 2u);
    const std::size_t ct = trace.column_index("chemical_time");
    double prev = -1.0;
    double out_sum_first = 0.0;
    for (std::size_t c = 0; c < trace.num_columns(); ++c) {
      if (trace.columns[c].rfind("out_", 0) == 0) {
        out_sum_first += trace.at(0, c);
      }
    }
    EXPECT_EQ(out_sum_first, 60.0);  // every agent announces something
    for (std::size_t row = 0; row < trace.num_rows(); ++row) {
      EXPECT_GE(trace.at(row, ct), prev);
      prev = trace.at(row, ct);
    }
    EXPECT_GT(prev, 0.0);  // the clock actually advanced
  }
  // Envelope x axis is chemical time for chemical specs.
  ASSERT_EQ(result.trace_envelopes.size(), 2u);
  EXPECT_EQ(result.trace_envelopes[0].columns.at(0), "chemical_time");
}

TEST(ObsIntegrationTest, RecorderThroughTrialOptionsAndMonitorAdapter) {
  // Direct sim::run_trial usage: a counts probe through the recorder plus
  // an event-level monitor in the same trial's monitor list.
  core::CirclesProtocol protocol(3);
  analysis::Workload workload;
  workload.counts = {30, 20, 10};

  core::CirclesBraKetView view(protocol);
  core::PotentialDescentMonitor potential(view);
  obs::CountsTrace counts_trace;

  obs::RecorderOptions recorder_options;
  recorder_options.interaction_horizon = 500'000'000;  // engine default
  obs::Recorder recorder(recorder_options);
  recorder.add(&counts_trace, obs::GridSpec::parse("log:32"));

  sim::TrialOptions options;
  options.seed = 3;
  options.recorder = &recorder;
  const std::array<pp::Monitor*, 1> monitors{&potential};
  const auto outcome = sim::run_trial(protocol, workload, options, monitors);

  EXPECT_TRUE(outcome.run.silent);
  // The monitor observed the full event stream.
  EXPECT_EQ(potential.descent_violations(), 0u);
  EXPECT_GT(potential.exchanges(), 0u);
  // The counts probe rode the same run; every row conserves the population.
  const obs::TraceTable& table = *counts_trace.table();
  ASSERT_GE(table.num_rows(), 2u);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    double sum = 0.0;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      if (table.columns[c].rfind("out_", 0) == 0) sum += table.at(row, c);
    }
    EXPECT_EQ(sum, 60.0) << "row " << row;
  }
}

TEST(ObsIntegrationTest, FaultBurstsKeepTraceMonotone) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 60;
  spec.trials = 2;
  spec.seed = 9;
  spec.reboot_faults = 3;
  spec.probes.push_back(obs::ProbeSpec::parse("energy@linear:64"));
  const auto result = sim::BatchRunner().run_one(spec);
  for (const auto& rec : result.trials) {
    const obs::TraceTable& trace = rec.traces.at(0);
    ASSERT_GE(trace.num_rows(), 2u);
    double prev = -1.0;
    for (std::size_t row = 0; row < trace.num_rows(); ++row) {
      EXPECT_GT(trace.at(row, 0), prev) << "row " << row;
      prev = trace.at(row, 0);
    }
  }
}

TEST(ObsIntegrationTest, BatchRunnerBuildsEnvelopesPerProbe) {
  sim::RunSpec spec = energy_spec(sim::EngineKind::kDense, 3, 80, 4, 13);
  spec.probes.push_back(obs::ProbeSpec::parse("active@log:16"));
  sim::BatchOptions options;
  options.keep_trials = false;  // envelopes must survive trial disposal
  const auto result = sim::BatchRunner(options).run_one(spec);

  ASSERT_EQ(result.trace_envelopes.size(), 2u);
  EXPECT_TRUE(result.trials.empty());
  const obs::TraceTable& energy = result.trace_envelopes[0];
  ASSERT_GT(energy.num_rows(), 0u);
  EXPECT_EQ(energy.columns.at(0), "interactions");
  const std::size_t p50 = energy.column_index("total_energy_p50");
  // Descent: the median energy at the end is no higher than at the start.
  EXPECT_LE(energy.at(energy.num_rows() - 1, p50), energy.at(0, p50));
  // The active-pair envelope hits zero at the end: every trial silenced.
  const obs::TraceTable& active = result.trace_envelopes[1];
  EXPECT_DOUBLE_EQ(
      active.at(active.num_rows() - 1, active.column_index("active_pairs_p90")),
      0.0);
}

TEST(ObsIntegrationTest, ValidationSplitsDenseRejections) {
  sim::BatchRunner runner;
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 50;
  spec.trials = 1;
  spec.backend = sim::EngineKind::kDense;

  // Probes are fine on dense backends.
  spec.probes.push_back(obs::ProbeSpec::parse("energy"));
  EXPECT_NO_THROW(runner.run_one(spec));

  // Monitor-based instrumentation names the probe alternative.
  {
    sim::RunSpec bad = spec;
    bad.circles_stats = true;
    try {
      runner.run_one(bad);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("obs::Probe"), std::string::npos)
          << e.what();
    }
  }
  // Agent-addressing features get their own message.
  {
    sim::RunSpec bad = spec;
    bad.reboot_faults = 1;
    try {
      runner.run_one(bad);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("individual agents"),
                std::string::npos)
          << e.what();
    }
  }
  // Chemical time is agent-engine-only.
  {
    sim::RunSpec bad = spec;
    bad.chemical_time = true;
    EXPECT_THROW(runner.run_one(bad), std::invalid_argument);
  }
  // Probe/protocol mismatches fail up front, naming the spec.
  {
    sim::RunSpec bad = spec;
    bad.protocol = "exact_majority_4state";
    bad.params.k = 2;
    bad.probes = {obs::ProbeSpec::parse("energy")};
    EXPECT_THROW(runner.run_one(bad), std::invalid_argument);
  }
}

TEST(ObsIntegrationTest, RunSpecProbeRoundTrip) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 4;
  spec.n = 128;
  spec.trials = 3;
  spec.probes.push_back(obs::ProbeSpec::parse("energy@log:64"));
  spec.probes.push_back(obs::ProbeSpec::parse("counts@frac:0.1,0.5,0.9"));
  const std::string text = spec.to_string();
  EXPECT_NE(text.find("trace=energy@log:64"), std::string::npos) << text;
  const sim::RunSpec parsed = sim::RunSpec::parse(text);
  ASSERT_EQ(parsed.probes.size(), 2u);
  EXPECT_EQ(parsed.probes[0], spec.probes[0]);
  EXPECT_EQ(parsed.probes[1], spec.probes[1]);
  EXPECT_EQ(parsed.to_string(), text);
}

}  // namespace
}  // namespace circles
