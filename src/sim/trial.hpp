// Single agent-array trials over a caller-held Workload: build the
// population, run, grade. Tests and examples drive protocols through the
// run_* functions directly; RunSpec trials run through sim::PreparedSpec
// (batch_runner.hpp), whose agent backend builds the same AgentTrial and
// CirclesInstruments and grades with the same grade_run.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "core/invariants.hpp"
#include "crn/gillespie.hpp"
#include "kernel/compiled_protocol.hpp"
#include "obs/monitor_probe.hpp"
#include "pp/engine.hpp"
#include "pp/scheduler.hpp"
#include "util/rng.hpp"

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
  /// obs::RecorderMonitor, so the same probe pipeline the count tiers feed
  /// observes agent runs too. Never perturbs the trial's RNG streams —
  /// results are bitwise identical with or without.
  obs::Recorder* recorder = nullptr;
  /// Attach the chemical clock (crn::ExponentialClockMonitor, RunSpec
  /// clock=chemical). It draws from its own stream, salted from `seed`, so
  /// the discrete run is bitwise identical with or without it.
  bool chemical_time = false;
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

/// One agent-array trial, set up once. Its RNG stream draws in the one
/// order REPRO replays rely on: the workload's colors shuffled onto agents,
/// then one split for the scheduler seed; `rng` continues the stream for
/// whatever the trial draws next (fault bursts). Then come the population
/// and the scheduler (options.scheduler_factory, else pp::make_scheduler
/// with options.clustered). The monitor list is the chemical clock first
/// when options.chemical_time is set, then the caller's monitors, then an
/// obs::RecorderMonitor (stamped with the clock's time) when
/// options.recorder is set. run() may be called repeatedly on the same
/// population (fault bursts re-enter the engine; the clock and the
/// recorder monitor keep counting across entries). `kernel`, when given,
/// must outlive the trial; otherwise the trial compiles a one-shot kernel
/// for `protocol`.
class AgentTrial {
 public:
  AgentTrial(const pp::Protocol& protocol, const analysis::Workload& workload,
             const TrialOptions& options,
             std::span<pp::Monitor* const> monitors = {},
             const kernel::CompiledProtocol* kernel = nullptr);
  AgentTrial(const AgentTrial&) = delete;
  AgentTrial& operator=(const AgentTrial&) = delete;

  pp::RunResult run(const pp::EngineOptions& engine);

  /// The chemical clock, or null unless options.chemical_time.
  const crn::ExponentialClockMonitor* clock() const {
    return clock_.has_value() ? &*clock_ : nullptr;
  }

  util::Rng rng;
  std::vector<pp::ColorId> colors;
  std::unique_ptr<pp::Population> population;

 private:
  std::optional<kernel::CompiledProtocol> owned_kernel_;
  const kernel::CompiledProtocol* kernel_;
  std::unique_ptr<pp::Scheduler> scheduler_;
  std::optional<crn::ExponentialClockMonitor> clock_;
  std::optional<obs::RecorderMonitor> recorder_monitor_;
  std::vector<pp::Monitor*> monitors_;
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

/// What the paper's Circles instrumentation read off one trial.
struct CirclesStats {
  std::uint64_t ket_exchanges = 0;
  std::uint64_t diagonal_creations = 0;
  std::uint64_t diagonal_destructions = 0;
  /// Lemma 3.3: the bra and ket multisets stay equal.
  std::uint64_t braket_invariant_violations = 0;
  /// Theorem 3.4: every exchange lowers the ordinal potential.
  std::uint64_t potential_descent_violations = 0;
  std::uint64_t scalar_energy_increases = 0;
  /// Lemma 3.6: the final bra-kets match the predicted decomposition.
  bool decomposition_matches = false;
};

/// The paper's Circles instrumentation for one agent trial: exchange
/// counting, the bra-ket invariant and the potential descent ride the run
/// as monitors(); stats() adds the decomposition verdict on the final
/// population.
class CirclesInstruments {
 public:
  explicit CirclesInstruments(const core::CirclesProtocol& protocol);
  CirclesInstruments(const CirclesInstruments&) = delete;
  CirclesInstruments& operator=(const CirclesInstruments&) = delete;

  std::span<pp::Monitor* const> monitors() const { return monitors_; }
  CirclesStats stats(const pp::Population& final_population,
                     const analysis::Workload& workload) const;

 private:
  const core::CirclesProtocol& protocol_;
  core::CirclesBraKetView view_;
  core::KetExchangeCounter exchanges_;
  core::BraKetInvariantMonitor invariant_;
  core::PotentialDescentMonitor potential_;
  std::array<pp::Monitor*, 3> monitors_;
};

/// Circles-specific trial with the paper's instrumentation attached.
struct CirclesTrialOutcome {
  TrialOutcome trial;
  CirclesStats circles;
};

CirclesTrialOutcome run_circles_trial(const core::CirclesProtocol& protocol,
                                      const analysis::Workload& workload,
                                      const TrialOptions& options);

}  // namespace circles::sim
