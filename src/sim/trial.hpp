// Single agent-array trials over a caller-held Workload: build the
// population, run, grade. Tests and examples drive protocols through these
// directly; RunSpec trials on every backend run through sim::PreparedSpec
// (batch_runner.hpp), which grades with the same grade_run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "pp/engine.hpp"
#include "pp/scheduler.hpp"

namespace circles::obs {
class Recorder;
}

namespace circles::sim {

/// Optional scheduler override: receives (n, seed) and returns the scheduler
/// to drive the trial. Used for schedulers outside the SchedulerKind zoo
/// (e.g. graph-restricted topologies).
using SchedulerFactory = std::function<std::unique_ptr<pp::Scheduler>(
    std::uint32_t n, std::uint64_t seed)>;

struct TrialOptions {
  pp::SchedulerKind scheduler = pp::SchedulerKind::kUniformRandom;
  std::uint64_t seed = 1;
  pp::EngineOptions engine = {};
  /// When set, overrides `scheduler`.
  SchedulerFactory scheduler_factory;
  /// Clustered-scheduler shape, consumed only when `scheduler` is
  /// kClustered.
  pp::ClusteredOptions clustered;
  /// Count-level observation (obs::): when set, the trial attaches an
  /// obs::RecorderMonitor (plus any probe's as_monitor() escape hatch), so
  /// the same probe pipeline the count tiers feed observes agent runs too.
  /// Never perturbs the trial's RNG streams — results are bitwise identical
  /// with or without.
  obs::Recorder* recorder = nullptr;
};

/// Outcome of running any plurality protocol on a workload.
struct TrialOutcome {
  pp::RunResult run;
  std::optional<pp::ColorId> expected_winner;
  /// Silent final configuration with every agent announcing the winner.
  bool correct = false;
  /// Final configuration reached consensus on some symbol (maybe wrong).
  std::optional<pp::OutputSymbol> consensus;
};

/// Builds the population from the workload (shuffled assignment), runs the
/// protocol to silence/budget, and grades the outcome. `expected_symbol`
/// overrides the graded target (used by tie semantics where the correct
/// output is not the plurality winner); by default the workload's unique
/// winner is the target.
TrialOutcome run_trial(const pp::Protocol& protocol,
                       const analysis::Workload& workload,
                       const TrialOptions& options,
                       std::span<pp::Monitor* const> monitors = {},
                       std::optional<pp::OutputSymbol> expected_symbol = {});

/// Like run_trial, but hands back the final population through
/// `final_population` for callers that grade per-agent outputs or inspect
/// the stable configuration. `assigned_colors`, when non-null, receives the
/// input color of each agent (index-aligned with the population).
TrialOutcome run_trial_keep_population(
    const pp::Protocol& protocol, const analysis::Workload& workload,
    const TrialOptions& options, std::span<pp::Monitor* const> monitors,
    std::optional<pp::OutputSymbol> expected_symbol,
    std::unique_ptr<pp::Population>* final_population,
    std::vector<pp::ColorId>* assigned_colors = nullptr);

/// Grades an already-finished run against the workload's winner (or an
/// explicit expected symbol): consensus extraction + correctness verdict.
TrialOutcome grade_run(const pp::RunResult& run,
                       const analysis::Workload& workload,
                       std::optional<pp::OutputSymbol> expected_symbol = {});

/// Circles-specific trial with the paper's instrumentation attached:
/// exchange counting, invariant checking and the Lemma 3.6 decomposition
/// verdict.
struct CirclesTrialOutcome {
  TrialOutcome trial;
  std::uint64_t ket_exchanges = 0;
  std::uint64_t diagonal_creations = 0;
  std::uint64_t diagonal_destructions = 0;
  std::uint64_t braket_invariant_violations = 0;
  std::uint64_t potential_descent_violations = 0;
  std::uint64_t scalar_energy_increases = 0;
  bool decomposition_matches = false;
};

CirclesTrialOutcome run_circles_trial(const core::CirclesProtocol& protocol,
                                      const analysis::Workload& workload,
                                      const TrialOptions& options);

}  // namespace circles::sim
