#include "sim/batch_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "metrics/metrics.hpp"
#include "sim/session.hpp"
#include "trace/trace.hpp"

namespace circles::sim {
namespace {

std::vector<RunSpec> small_grid() {
  std::vector<RunSpec> specs;
  {
    RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.n = 16;
    spec.trials = 6;
    spec.circles_stats = true;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.protocol = "tie_report";
    spec.params.k = 3;
    spec.n = 12;
    spec.workload = WorkloadSpec::exact_tie(2);
    spec.grading = Grading::kTieAware;
    spec.trials = 4;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.protocol = "exact_majority_4state";
    spec.params.k = 2;
    spec.workload = WorkloadSpec::explicit_counts({7, 4});
    spec.scheduler = pp::SchedulerKind::kRoundRobin;
    spec.trials = 3;
    specs.push_back(spec);
  }
  return specs;
}

void expect_identical(const SpecResult& a, const SpecResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(a.trials[t].seed, b.trials[t].seed);
    EXPECT_EQ(a.trials[t].workload.counts, b.trials[t].workload.counts);
    EXPECT_EQ(a.trials[t].outcome.run.interactions,
              b.trials[t].outcome.run.interactions);
    EXPECT_EQ(a.trials[t].outcome.run.state_changes,
              b.trials[t].outcome.run.state_changes);
    EXPECT_EQ(a.trials[t].outcome.correct, b.trials[t].outcome.correct);
    EXPECT_EQ(a.trials[t].outcome.consensus, b.trials[t].outcome.consensus);
    EXPECT_EQ(a.trials[t].circles.ket_exchanges,
              b.trials[t].circles.ket_exchanges);
  }
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.interactions.mean, b.interactions.mean);
  EXPECT_EQ(a.interactions.p90, b.interactions.p90);
  EXPECT_EQ(a.ket_exchanges.mean, b.ket_exchanges.mean);
}

TEST(BatchRunnerTest, ResultsAreThreadCountInvariant) {
  auto specs = small_grid();
  // Multi-urn dense_batched trials sharing one engine across the pool.
  specs.push_back(RunSpec::parse(
      "circles(k=3) n=1000 workload=zipf:1.2 scheduler=clustered clusters=4 "
      "bridge=0.05 trials=4 backend=dense_batched"));
  const auto single = BatchRunner({.threads = 1, .base_seed = 99}).run(specs);
  const auto pooled = BatchRunner({.threads = 8, .base_seed = 99}).run(specs);
  ASSERT_EQ(single.size(), specs.size());
  ASSERT_EQ(pooled.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(single[i], pooled[i]);
  }
}

TEST(BatchRunnerTest, PooledTrialExceptionIsRethrownWithOneRepro) {
  // A grader that throws on its third call: the job catches it on whichever
  // pool thread ran it (an exception escaping a pool helper would call
  // std::terminate), dumps one REPRO line, skips the jobs not yet started,
  // and run() rethrows it on the caller.
  std::atomic<int> calls{0};
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 40;
  spec.trials = 8;
  spec.grader = [&](const pp::Protocol&, const analysis::Workload&,
                    std::span<const pp::ColorId>, const pp::Population&,
                    const pp::RunResult&) {
    if (calls.fetch_add(1) == 2) {
      throw std::runtime_error("grader failed on purpose");
    }
    return true;
  };
  trace::Tracer tracer;
  const BatchRunner runner({.threads = 4, .tracer = &tracer});
  std::string what;
  testing::internal::CaptureStderr();
  try {
    (void)runner.run_one(spec);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(what, "grader failed on purpose");
  std::istringstream lines(err);
  int repro_lines = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("REPRO:", 0) == 0) ++repro_lines;
  }
  EXPECT_EQ(repro_lines, 1) << err;
  EXPECT_NE(err.find("worker exception: grader failed on purpose"),
            std::string::npos)
      << err;
}

TEST(BatchRunnerTest, ConcurrentBatchesMatchSerialRuns) {
  // Two batches in flight at once, each with its own threads, must not
  // share any per-run state: each equals a width-1 run record by record.
  auto specs = small_grid();
  specs.push_back(RunSpec::parse(
      "circles(k=3) n=1000 workload=zipf:1.2 scheduler=clustered clusters=4 "
      "bridge=0.05 trials=4 backend=dense_batched"));
  const auto serial = BatchRunner({.threads = 1, .base_seed = 7}).run(specs);
  std::vector<SpecResult> first;
  std::vector<SpecResult> second;
  std::thread a([&]() {
    first = BatchRunner({.threads = 3, .base_seed = 7}).run(specs);
  });
  std::thread b([&]() {
    second = BatchRunner({.threads = 3, .base_seed = 7}).run(specs);
  });
  a.join();
  b.join();
  ASSERT_EQ(first.size(), specs.size());
  ASSERT_EQ(second.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], first[i]);
    expect_identical(serial[i], second[i]);
  }
}

TEST(BatchRunnerTest, WidthOneRunsOnTheCallingThread) {
  std::mutex mutex;
  std::set<std::thread::id> graders;
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 24;
  spec.trials = 5;
  spec.grader = [&](const pp::Protocol&, const analysis::Workload&,
                    std::span<const pp::ColorId>, const pp::Population&,
                    const pp::RunResult&) {
    const std::lock_guard<std::mutex> lock(mutex);
    graders.insert(std::this_thread::get_id());
    return true;
  };
  const SpecResult result = BatchRunner({.threads = 1}).run_one(spec);
  EXPECT_EQ(result.trial_count, 5u);
  EXPECT_EQ(graders, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(BatchRunnerTest, TrialSeedsAreIndependentStreams) {
  auto specs = small_grid();
  const auto results = BatchRunner({.threads = 2, .base_seed = 5}).run(specs);
  std::set<std::uint64_t> seeds;
  for (const auto& result : results) {
    for (const auto& rec : result.trials) seeds.insert(rec.seed);
  }
  std::size_t total = 0;
  for (const auto& spec : specs) total += spec.trials;
  EXPECT_EQ(seeds.size(), total);  // all (spec, trial) streams distinct

  // Specs that pin their seed share per-trial streams across protocols:
  // identical workloads and schedules for apples-to-apples comparisons.
  RunSpec a, b;
  a.protocol = "circles";
  a.params.k = 2;
  a.n = 14;
  a.trials = 4;
  a.seed = 1234;
  b = a;
  b.protocol = "approx_majority_3state";
  const auto shared = BatchRunner({.threads = 2}).run({a, b});
  for (std::uint32_t t = 0; t < a.trials; ++t) {
    EXPECT_EQ(shared[0].trials[t].seed, shared[1].trials[t].seed);
    EXPECT_EQ(shared[0].trials[t].workload.counts,
              shared[1].trials[t].workload.counts);
  }
}

TEST(BatchRunnerTest, ChangingBaseSeedChangesUnpinnedStreams) {
  auto specs = small_grid();
  const auto first = BatchRunner({.threads = 1, .base_seed = 1}).run(specs);
  const auto second = BatchRunner({.threads = 1, .base_seed = 2}).run(specs);
  EXPECT_NE(first[0].trials[0].seed, second[0].trials[0].seed);
}

TEST(BatchRunnerTest, AggregatesMatchPerTrialRecords) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 4;
  spec.n = 24;
  spec.trials = 8;
  spec.circles_stats = true;
  const auto result = BatchRunner({.threads = 4, .base_seed = 3}).run_one(spec);

  ASSERT_EQ(result.trial_count, spec.trials);
  ASSERT_EQ(result.trials.size(), spec.trials);
  std::uint32_t correct = 0, silent = 0, matches = 0;
  double interaction_sum = 0.0, exchange_sum = 0.0;
  for (const auto& rec : result.trials) {
    correct += rec.outcome.correct ? 1 : 0;
    silent += rec.outcome.run.silent ? 1 : 0;
    matches += rec.circles.decomposition_matches ? 1 : 0;
    interaction_sum += static_cast<double>(rec.outcome.run.interactions);
    exchange_sum += static_cast<double>(rec.circles.ket_exchanges);
  }
  EXPECT_EQ(result.correct, correct);
  EXPECT_EQ(result.silent, silent);
  EXPECT_EQ(result.decomposition_matches, matches);
  EXPECT_EQ(result.interactions.count, spec.trials);
  EXPECT_DOUBLE_EQ(result.interactions.mean, interaction_sum / spec.trials);
  EXPECT_DOUBLE_EQ(result.ket_exchanges.mean, exchange_sum / spec.trials);

  // Theorem 3.7 on the side: every circles trial must be correct & silent.
  EXPECT_TRUE(result.all_correct());
  EXPECT_TRUE(result.all_silent());
  EXPECT_EQ(result.potential_descent_violations, 0u);
  EXPECT_EQ(result.braket_invariant_violations, 0u);
  EXPECT_EQ(result.decomposition_rate(), 1.0);
}

TEST(BatchRunnerTest, ValidatesSpecsUpFront) {
  RunSpec unknown;
  unknown.protocol = "no_such_protocol";
  unknown.n = 8;
  unknown.trials = 1;
  EXPECT_THROW(BatchRunner().run_one(unknown), std::invalid_argument);

  RunSpec not_circles;
  not_circles.protocol = "exact_majority_4state";
  not_circles.workload = WorkloadSpec::explicit_counts({3, 2});
  not_circles.trials = 1;
  not_circles.circles_stats = true;
  EXPECT_THROW(BatchRunner().run_one(not_circles), std::invalid_argument);

  RunSpec zero_trials;
  zero_trials.protocol = "circles";
  zero_trials.n = 8;
  zero_trials.trials = 0;
  EXPECT_THROW(BatchRunner().run_one(zero_trials), std::invalid_argument);

  // Explicit counts must match the protocol's color count.
  RunSpec mismatched;
  mismatched.protocol = "circles";
  mismatched.params.k = 3;
  mismatched.workload = WorkloadSpec::explicit_counts({5, 3});
  mismatched.trials = 1;
  EXPECT_THROW(BatchRunner().run_one(mismatched), std::invalid_argument);

  // Populations need at least two agents (default n = 0 rejected cleanly).
  RunSpec too_small;
  too_small.protocol = "circles";
  too_small.trials = 1;
  EXPECT_THROW(BatchRunner().run_one(too_small), std::invalid_argument);

  // chemical_time rides the one agent trial body, so it combines with
  // circles_stats and reports both; the clock moves no discrete draw.
  RunSpec chemical_combo;
  chemical_combo.protocol = "circles";
  chemical_combo.params.k = 2;
  chemical_combo.n = 8;
  chemical_combo.trials = 2;
  chemical_combo.chemical_time = true;
  chemical_combo.circles_stats = true;
  const SpecResult chemical = BatchRunner().run_one(chemical_combo);
  EXPECT_EQ(chemical.decomposition_matches, chemical.trial_count);
  EXPECT_GT(chemical.stabilization_time.mean, 0.0);
  RunSpec discrete = chemical_combo;
  discrete.chemical_time = false;
  const SpecResult reference = BatchRunner().run_one(discrete);
  EXPECT_EQ(chemical.interactions.mean, reference.interactions.mean);
  EXPECT_EQ(chemical.ket_exchanges.mean, reference.ket_exchanges.mean);
  EXPECT_EQ(chemical.decomposition_matches, reference.decomposition_matches);
}

/// The std::invalid_argument message run_one throws for `spec`; fails the
/// test when the spec is accepted.
std::string rejection(const RunSpec& spec) {
  try {
    (void)BatchRunner().run_one(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted: " << spec.to_string();
  return {};
}

RunSpec circles_spec(std::uint32_t k, std::uint64_t n, EngineKind backend) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = k;
  spec.n = n;
  spec.trials = 1;
  spec.backend = backend;
  return spec;
}

TEST(BatchRunnerValidationTest, RejectsExactTiesThatCannotBeBuilt) {
  struct Case {
    std::uint32_t k;
    std::uint64_t n;
    std::uint32_t tied;
  };
  // More tied colors than k; fewer agents than tied colors; and a k-way tie
  // whose n does not split evenly (no other color can take the leftover).
  for (const Case c : {Case{3, 30, 5}, Case{4, 2, 3}, Case{2, 5, 2}}) {
    for (const EngineKind backend :
         {EngineKind::kAgentArray, EngineKind::kDenseBatched,
          EngineKind::kAuto}) {
      RunSpec spec = circles_spec(c.k, c.n, backend);
      spec.workload = WorkloadSpec::exact_tie(c.tied);
      const std::string message = rejection(spec);
      EXPECT_NE(message.find(spec.to_string()), std::string::npos) << message;
      EXPECT_NE(message.find("exact tie"), std::string::npos) << message;
    }
  }
  // The feasible neighbours still run.
  RunSpec feasible = circles_spec(3, 30, EngineKind::kAgentArray);
  feasible.workload = WorkloadSpec::exact_tie(3);
  EXPECT_EQ(BatchRunner().run_one(feasible).trial_count, 1u);
  feasible = circles_spec(2, 6, EngineKind::kDense);
  feasible.workload = WorkloadSpec::exact_tie(2);
  EXPECT_EQ(BatchRunner().run_one(feasible).trial_count, 1u);
}

TEST(BatchRunnerValidationTest, RejectsMarginOneWorkloadsThatCannotBeBuilt) {
  // One color has no runner-up; two agents cannot put a winner ahead of a
  // non-empty runner-up.
  for (const auto [k, n] : {std::pair<std::uint32_t, std::uint64_t>{1, 30},
                            std::pair<std::uint32_t, std::uint64_t>{3, 2}}) {
    for (const EngineKind backend :
         {EngineKind::kAgentArray, EngineKind::kDenseBatched,
          EngineKind::kAuto}) {
      RunSpec spec = circles_spec(k, n, backend);
      spec.workload = WorkloadSpec::close_margin();
      const std::string message = rejection(spec);
      EXPECT_NE(message.find(spec.to_string()), std::string::npos) << message;
      EXPECT_NE(message.find("margin-1"), std::string::npos) << message;
    }
  }
  RunSpec feasible = circles_spec(2, 3, EngineKind::kAgentArray);
  feasible.workload = WorkloadSpec::close_margin();
  EXPECT_EQ(BatchRunner().run_one(feasible).trial_count, 1u);
}

TEST(BatchRunnerValidationTest, RejectsPopulationsBeyondTheBackendRange) {
  // Each spec fails before any per-agent or per-count allocation.
  std::vector<RunSpec> specs = {
      circles_spec(3, 5'000'000'000, EngineKind::kAgentArray),
      circles_spec(3, (1ull << 32), EngineKind::kAgentArray),
      circles_spec(3, (1ull << 32) + 1, EngineKind::kDense),
      circles_spec(3, 5'000'000'000, EngineKind::kDenseBatched),
  };
  // backend=auto resolves a non-lumpable scheduler to the agent array.
  specs.push_back(circles_spec(3, 5'000'000'000, EngineKind::kAuto));
  specs.back().scheduler = pp::SchedulerKind::kRoundRobin;
  for (const RunSpec& spec : specs) {
    const std::string message = rejection(spec);
    EXPECT_NE(message.find(spec.to_string()), std::string::npos) << message;
    EXPECT_NE(message.find("backend=fluid"), std::string::npos) << message;
    EXPECT_NE(message.find("backend=auto"), std::string::npos) << message;
  }
}

TEST(BatchRunnerValidationTest, ReplayedSpecsGetTheSameChecks) {
  // sweep --spec replays run execute_trial, which prepares the spec and so
  // runs validate_spec first; each of these would otherwise die inside the
  // trial.
  for (const std::string text :
       {"circles(k=3) n=1 backend=agent", "circles(k=3) n=30 workload=tie:5",
        "circles(k=3) n=5000000000 backend=agent",
        "circles(k=3) n=5000000000 backend=dense_batched"}) {
    const RunSpec spec = RunSpec::parse(text);
    const auto protocol =
        ProtocolRegistry::global().create(spec.protocol, spec.params);
    try {
      validate_spec(spec, *protocol);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec.to_string()),
                std::string::npos)
          << e.what();
    }
  }
  const RunSpec ok = RunSpec::parse("circles(k=3) n=30 backend=agent");
  const auto protocol = ProtocolRegistry::global().create("circles", {.k = 3});
  EXPECT_NO_THROW(validate_spec(ok, *protocol));
}

/// The rejection message names the spec and mentions `needle`.
void expect_rejected(const RunSpec& spec, const std::string& needle) {
  const std::string message = rejection(spec);
  EXPECT_NE(message.find(spec.to_string()), std::string::npos) << message;
  EXPECT_NE(message.find(needle), std::string::npos) << message;
}

TEST(BatchRunnerValidationTest, RejectsThreadsInsideARun) {
  // A run is serial inside; the one thread-count knob is
  // BatchOptions::threads.
  for (const std::uint32_t threads : {0u, 2u, 4u}) {
    RunSpec spec = circles_spec(3, 200, EngineKind::kDenseBatched);
    spec.run_threads = threads;
    SCOPED_TRACE(spec.to_string());
    EXPECT_NE(spec.to_string().find("threads=" + std::to_string(threads)),
              std::string::npos);
    expect_rejected(spec, "threads inside a run");
  }
}

TEST(BatchRunnerValidationTest, RejectsEngineRunThreads) {
  RunSpec spec = circles_spec(3, 200, EngineKind::kDenseBatched);
  spec.engine.run_threads = 2;
  expect_rejected(spec, "threads inside a run");
}

TEST(BatchRunnerValidationTest, RejectsSpecOwnedTelemetry) {
  // Engine counters and spans attach batch-wide or through the spec's
  // metrics= / spans= sinks, so batch.trial, kernel.* and REPRO dumps land
  // in the same place as the engine's own telemetry.
  metrics::MetricsRegistry registry;
  trace::Tracer tracer;
  RunSpec with_metrics = circles_spec(3, 40, EngineKind::kAgentArray);
  with_metrics.engine.metrics = &registry;
  expect_rejected(with_metrics, "metrics registry or tracer");
  RunSpec with_tracer = circles_spec(3, 40, EngineKind::kAgentArray);
  with_tracer.engine.tracer = &tracer;
  expect_rejected(with_tracer, "metrics registry or tracer");
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(BatchRunnerValidationTest, ReplayedThreadsTokenMustBeOne) {
  // sweep --spec replays: "threads=4" fails the spec check (sweep exits 2
  // naming the spec), while "threads=1", as perfbench's spec strings
  // carry it, still parses and runs.
  const RunSpec wide =
      RunSpec::parse("circles(k=3) n=30 backend=agent threads=4");
  try {
    (void)BatchRunner::execute_trial(wide, 1);
    ADD_FAILURE() << "accepted: " << wide.to_string();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(wide.to_string()), std::string::npos)
        << e.what();
  }
  const RunSpec serial =
      RunSpec::parse("circles(k=3) n=30 backend=agent threads=1");
  EXPECT_EQ(serial.run_threads, 1u);
  EXPECT_EQ(serial.to_string().find("threads="), std::string::npos);
  EXPECT_TRUE(BatchRunner::execute_trial(serial, 1).outcome.correct);
}

TEST(BatchRunnerTest, TieAwareGradingAcceptsTieSymbolConsensus) {
  RunSpec spec;
  spec.protocol = "tie_report";
  spec.params.k = 2;
  spec.workload = WorkloadSpec::explicit_counts({4, 4});
  spec.grading = Grading::kTieAware;
  spec.trials = 4;
  const auto result = BatchRunner({.base_seed = 11}).run_one(spec);
  EXPECT_TRUE(result.all_correct());
  for (const auto& rec : result.trials) {
    EXPECT_EQ(rec.outcome.consensus, std::optional<pp::OutputSymbol>(2u));
  }
}

TEST(BatchRunnerTest, ReproSpecsReplayGradingFaultsAndChemicalTime) {
  // A failing trial's REPRO line is spec.to_string(); replaying it must run
  // and grade the same trial, so every field that changes either has to
  // survive the round trip.
  const auto circles = [](std::uint64_t n) {
    RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.n = n;
    return spec;
  };
  std::vector<RunSpec> specs;
  {
    RunSpec spec = circles(40);
    spec.reboot_faults = 3;
    specs.push_back(spec);
    spec.fault_burst_min = 50;
    spec.fault_burst_span = 0;
    specs.push_back(spec);
  }
  {
    RunSpec spec = circles(40);
    spec.chemical_time = true;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.protocol = "tie_report";
    spec.params.k = 3;
    spec.n = 30;
    spec.workload = WorkloadSpec::exact_tie(2);
    spec.grading = Grading::kTieAware;
    specs.push_back(spec);
  }
  for (const RunSpec& spec : specs) {
    const std::string text = spec.to_string();
    SCOPED_TRACE(text);
    const RunSpec replay = RunSpec::parse(text);
    EXPECT_EQ(replay.grading, spec.grading);
    EXPECT_EQ(replay.reboot_faults, spec.reboot_faults);
    EXPECT_EQ(replay.fault_burst_min, spec.fault_burst_min);
    EXPECT_EQ(replay.fault_burst_span, spec.fault_burst_span);
    EXPECT_EQ(replay.chemical_time, spec.chemical_time);
    EXPECT_EQ(replay.to_string(), text);

    const TrialRecord original = BatchRunner::execute_trial(spec, 12345);
    const TrialRecord replayed = BatchRunner::execute_trial(replay, 12345);
    EXPECT_EQ(replayed.outcome.run.interactions,
              original.outcome.run.interactions);
    EXPECT_EQ(replayed.outcome.run.state_changes,
              original.outcome.run.state_changes);
    EXPECT_EQ(replayed.outcome.correct, original.outcome.correct);
    EXPECT_EQ(replayed.stabilization_time, original.stabilization_time);
  }
  // Defaults render no token.
  const std::string plain = circles(40).to_string();
  for (const char* key : {"grading=", "faults=", "burst_", "clock="}) {
    EXPECT_EQ(plain.find(key), std::string::npos) << key;
  }
}

TEST(BatchRunnerTest, KeepTrialsOffStillAggregates) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 10;
  spec.trials = 5;
  const auto result =
      BatchRunner({.threads = 2, .base_seed = 7, .keep_trials = false})
          .run_one(spec);
  EXPECT_TRUE(result.trials.empty());
  EXPECT_EQ(result.trial_count, 5u);
  EXPECT_EQ(result.interactions.count, 5u);
  EXPECT_TRUE(result.all_correct());
}

TEST(SessionBuilderTest, TenLineQuickstart) {
  const SpecResult result = SessionBuilder()
                                .protocol("circles")
                                .k(3)
                                .n(30)
                                .workload(WorkloadSpec::zipf(1.3))
                                .scheduler("uniform")
                                .trials(4)
                                .seed(2025)
                                .run();
  EXPECT_TRUE(result.all_correct());
  EXPECT_TRUE(result.all_silent());
  EXPECT_EQ(result.trial_count, 4u);
}

TEST(SessionBuilderTest, CountsSetKAndWorkload) {
  const RunSpec spec =
      SessionBuilder().protocol("circles").counts({5, 1, 2, 2}).build();
  EXPECT_EQ(spec.params.k, 4u);
  EXPECT_EQ(spec.effective_n(), 10u);
  EXPECT_EQ(spec.workload.family, WorkloadSpec::Family::kExplicit);
}

}  // namespace
}  // namespace circles::sim
