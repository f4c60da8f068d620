// Declarative run description: WorkloadSpec + RunSpec.
//
// A RunSpec is a value describing one cell of an experiment grid: which
// protocol (by registry name) on which workload family, at which population
// size, under which scheduler, for how many trials, with which engine
// options and instrumentation. The BatchRunner executes vectors of RunSpecs
// across threads with fully deterministic per-trial seeding, so a spec
// grid IS the experiment — binaries only format the aggregated results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/workload.hpp"
#include "obs/probe_spec.hpp"
#include "pp/engine.hpp"
#include "pp/scheduler.hpp"
#include "sim/registry.hpp"
#include "sim/trial.hpp"

namespace circles::sim {

/// A workload family plus its parameters; materialized into concrete counts
/// per trial (deterministically from the trial's RNG stream), except for
/// kExplicit which carries fixed counts shared by every trial.
struct WorkloadSpec {
  enum class Family {
    kUniqueWinner,  // uniform random counts, unique winner enforced
    kRandomCounts,  // uniform random counts, ties allowed
    kExactTie,      // `tied_colors` colors share the maximum count
    kCloseMargin,   // winner beats runner-up by exactly one
    kDominant,      // one color holds ~`share` of the agents
    kZipf,          // Zipf(`exponent`) counts, unique winner enforced
    kExplicit,      // fixed `counts`, identical in every trial
  };

  Family family = Family::kUniqueWinner;
  std::uint32_t tied_colors = 2;  // kExactTie
  double share = 0.5;             // kDominant
  double exponent = 1.2;          // kZipf
  std::vector<std::uint64_t> counts;  // kExplicit

  static WorkloadSpec unique_winner();
  static WorkloadSpec random_counts();
  static WorkloadSpec exact_tie(std::uint32_t tied_colors);
  static WorkloadSpec close_margin();
  /// Throws std::invalid_argument unless 0 < share <= 1.
  static WorkloadSpec dominant(double share);
  /// Throws std::invalid_argument on a non-finite exponent.
  static WorkloadSpec zipf(double exponent);
  static WorkloadSpec explicit_counts(std::vector<std::uint64_t> counts);

  /// Concrete counts for one trial. `rng` is consumed deterministically;
  /// kExplicit ignores all three arguments.
  analysis::Workload materialize(util::Rng& rng, std::uint64_t n,
                                 std::uint32_t k) const;

  /// "unique", "random", "tie:2", "margin1", "dominant:0.6", "zipf:1.4",
  /// "counts:5,3,2".
  std::string to_string() const;
  static WorkloadSpec parse(const std::string& text);
};

/// Which simulation engine executes a trial.
enum class EngineKind {
  /// pp::Engine over an explicit agent array — supports every scheduler,
  /// monitors, per-agent graders and fault injection.
  kAgentArray,
  /// dense::DenseEngine, per-step mode: a lumpable scheduler (uniform or
  /// clustered — see pp::Scheduler::lumping) simulated directly on per-state
  /// counts, one count vector per urn; O(present states) per interaction,
  /// O(num_urns * num_states) memory, exact silence detection. Explicit
  /// only: auto never picks it.
  kDense,
  /// dense::DenseEngine, batched mode: collision-free epochs of ~sqrt(n)
  /// interactions, each sampled agent by agent when it touches few agents
  /// against the urns' present states (most epochs), else dealt with
  /// hypergeometric draws per urn-pair block; sparse activity is
  /// fast-forwarded — auto's count backend from kAutoDenseMinN up to the
  /// fluid tier. Lumpable schedulers only, like kDense.
  kDenseBatched,
  /// fluid::FluidEngine: the lumped count chain integrated as a mean-field
  /// ODE (adaptive embedded RK pair, rtol/atol via RunSpec::rtol/atol),
  /// drift terms compiled once from the kernel IR. O(1/sqrt(n)) model error,
  /// cost independent of n — the n >= 1e9 tier. Lumpable schedulers only,
  /// like the dense backends.
  kFluid,
  /// Resolved per spec by the BatchRunner on a three-rung ladder: agent for
  /// agent-only features, non-lumpable schedulers, n < kAutoDenseMinN or
  /// num_states > n; fluid from kAutoFluidMinN; dense_batched in between.
  /// Auto never picks per-step kDense: dense_batched is faster at every n
  /// where a count backend runs (bench_throughput's calibration section).
  /// The resolution lands in SpecResult::backend_resolved, the rule that
  /// fired in SpecResult::auto_reason.
  kAuto,
};

/// Auto-dispatch thresholds: below kAutoDenseMinN the agent array beats
/// dense_batched on most inputs and is strictly more featureful (the
/// agent/dense_batched crossover of bench_throughput's calibration grid;
/// at circles k=3 n=32 only margin-1 inputs run faster batched); from
/// kAutoFluidMinN the mean-field model error O(1/sqrt(n)) drops below the
/// discrete chain's own trial-to-trial noise and the ODE costs nothing as
/// n grows.
inline constexpr std::uint64_t kAutoDenseMinN = 64;
inline constexpr std::uint64_t kAutoFluidMinN = 100'000'000;

/// Parses "agent", "dense", "dense_batched", "fluid", "auto".
EngineKind engine_kind_from_string(const std::string& text);
std::string to_string(EngineKind kind);

/// How the BatchRunner grades each trial.
enum class Grading {
  /// Correct iff silent consensus on the workload's unique plurality winner.
  kPluralityWinner,
  /// Correct iff silent consensus on the winner when unique, and on the
  /// protocol's TIE symbol (= k) when the input is tied.
  kTieAware,
};

/// One cell of an experiment grid.
struct RunSpec {
  std::string protocol = "circles";
  ProtocolParams params;

  /// Population size (ignored by explicit-counts workloads, which fix n).
  std::uint64_t n = 0;
  WorkloadSpec workload;

  pp::SchedulerKind scheduler = pp::SchedulerKind::kUniformRandom;
  /// When set, overrides `scheduler` (e.g. graph-restricted topologies).
  SchedulerFactory scheduler_factory;

  /// Clustered-scheduler shape (meaningful only when scheduler is
  /// kClustered): number of equal clusters (0 = the scheduler's default of
  /// two), or explicit per-cluster sizes (overrides `clusters`). Rendered
  /// as "clusters=4" / "clusters=600,400" tokens by to_string()/parse().
  std::uint32_t clusters = 0;
  std::vector<std::uint64_t> cluster_sizes;
  /// Total inter-cluster interaction probability of the clustered
  /// scheduler; rendered as "bridge=0.001" when non-default.
  double bridge = 0.01;

  /// Simulation backend. The dense backends simulate lumpable schedulers
  /// (uniform, clustered — pp::Scheduler::lumping) on per-state counts with
  /// no agent array, so they reject the agent-level features: non-lumpable
  /// schedulers, scheduler_factory, circles_stats, track_used_states,
  /// reboot_faults, grader and chemical_time — the BatchRunner refuses such
  /// specs up front. kAuto resolves to a concrete backend per spec instead
  /// of refusing.
  EngineKind backend = EngineKind::kAgentArray;

  /// Must be 1 (validate_spec rejects anything else): every run is serial
  /// inside, and the one thread-count knob is BatchOptions::threads (sweep
  /// --threads). Parsed from a "threads=" token, which perfbench/'s spec
  /// strings still carry as "threads=1", and rendered only when not 1. The
  /// next change to the benchmark deletes the field and the token.
  std::uint32_t run_threads = 1;

  /// Fluid-backend integrator tolerances (backend=fluid or auto-resolved
  /// fluid); 0 = the engine defaults (rtol 1e-6, atol 1e-9). Setting them on
  /// a concrete non-fluid backend is an error the BatchRunner rejects up
  /// front. Rendered as "rtol=1e-4" / "atol=1e-8" tokens when non-zero.
  double rtol = 0.0;
  double atol = 0.0;

  /// Custom correctness verdict (engine runs only): receives the final
  /// population and overrides the standard grading (e.g. per-agent checks).
  std::function<bool(const pp::Protocol& protocol,
                     const analysis::Workload& workload,
                     std::span<const pp::ColorId> colors,
                     const pp::Population& population,
                     const pp::RunResult& run)>
      grader;

  std::uint32_t trials = 1;
  /// Per-spec seed; when unset the BatchRunner derives one from its base
  /// seed and the spec's index. Two specs with equal seeds and workloads see
  /// identical per-trial workloads and schedule streams — set this to
  /// compare protocols on identical inputs.
  std::optional<std::uint64_t> seed;

  /// Engine knobs shared by every backend. The interaction budget
  /// (engine.max_interactions) is rendered as a "budget=" token when
  /// non-default, so a spec string reproduces budget_exhausted failures
  /// exactly (the flight recorder's REPRO lines rely on this).
  pp::EngineOptions engine;
  /// Rendered as a "grading=tie_aware" token when tie-aware.
  Grading grading = Grading::kPluralityWinner;

  /// Attach the paper's Circles instrumentation (exchange counters,
  /// invariant monitors, Lemma 3.6 decomposition verdict). Requires the
  /// protocol to be a core::CirclesProtocol.
  bool circles_stats = false;

  /// Count the distinct states occupied over the run.
  bool track_used_states = false;

  /// Count-level trajectory probes (obs::), attached per trial on EVERY
  /// backend — the agent engine feeds them through an obs::RecorderMonitor,
  /// the dense engines sample their count vectors directly, and
  /// chemical-time specs record on the exponential clock. Each trial's
  /// traces land on the TrialRecord; the BatchRunner aggregates them into
  /// per-spec quantile envelopes. Rendered as "trace=energy@log:1024"
  /// tokens by to_string()/parse().
  std::vector<obs::ProbeSpec> probes;

  /// Put the chemical clock on the agent run: sim::AgentTrial attaches a
  /// crn::ExponentialClockMonitor, which stamps every interaction with an
  /// Exp(n−1) wait, and the trial records the chemical stabilization and
  /// convergence times. Under scheduler=uniform that is exactly Gillespie
  /// kinetics (its embedded jump chain is the uniform scheduler); under any
  /// other scheduler it is that scheduler's run on the same clock. The
  /// clock draws from its own stream, so every discrete result equals the
  /// same spec without it, and it combines with every agent-level feature.
  /// Agent backend only (auto resolves such specs to agent). Rendered as a
  /// "clock=chemical" token.
  bool chemical_time = false;

  /// Per-spec telemetry sink: when non-empty, the BatchRunner gives this
  /// spec a private metrics::MetricsRegistry, flushes every trial's engine
  /// counters plus kernel/phase stats into it, and writes it here (".csv"
  /// picks CSV, anything else JSONL) with a RunManifest next to it
  /// ("<path minus extension>.manifest.json"). Rendered as a
  /// "metrics=path" token by to_string()/parse(); the path therefore must
  /// not contain spaces.
  std::string metrics_out;

  /// Per-spec span-trace sink: when non-empty, the BatchRunner gives this
  /// spec a private trace::Tracer, routes every trial's engine spans plus
  /// the kernel-compile span into it, and writes Chrome Trace Event Format
  /// JSON here (open in chrome://tracing or Perfetto). Rendered as a
  /// "spans=path" token by to_string()/parse(); the path therefore must not
  /// contain spaces. Not to be confused with the "trace=" token, which
  /// attaches obs:: count-trajectory probes (see `probes`).
  std::string spans_out;

  /// Transient-fault injection: before the final run to silence, execute
  /// this many bursts, rebooting one random agent to its input state after
  /// each burst. Burst length is uniform in
  /// [fault_burst_min, fault_burst_min + fault_burst_span). Rendered as
  /// "faults=3" / "burst_min=200" / "burst_span=400" tokens when non-default.
  std::uint32_t reboot_faults = 0;
  std::uint64_t fault_burst_min = 200;
  std::uint64_t fault_burst_span = 400;

  /// Free-form tag carried through to the SpecResult (for tables).
  std::string label;

  /// n actually used: the explicit workload's total when fixed, else `n`.
  std::uint64_t effective_n() const;

  /// The clustered-scheduler shape this spec describes (clusters /
  /// cluster_sizes / bridge), in the form pp::make_scheduler and
  /// pp::clustered_lumping consume.
  pp::ClusteredOptions clustered_options() const;

  /// Human-readable one-line description, e.g.
  ///   "circles(k=3) n=100 workload=unique scheduler=uniform trials=5
  ///    backend=dense [tag]"
  /// (backend omitted for the agent-array default). parse() inverts it.
  std::string to_string() const;

  /// Parses the to_string() format back into a spec: every rendered field,
  /// so a REPRO line runs and grades the same trial. Callables (grader,
  /// scheduler_factory) and the circles_stats / track_used_states
  /// instrumentation are not rendered. Throws std::invalid_argument on
  /// malformed text.
  static RunSpec parse(const std::string& text);
};

/// The exact count-level lumping of the spec's scheduler, if it has one —
/// how the BatchRunner decides "is this spec count-simulable?" and with which
/// urn structure. Answered from the scheduler kind, without building a
/// scheduler: uniform is one urn, clustered is pp::clustered_lumping of the
/// spec's cluster shape (validated; throws std::invalid_argument on a bad
/// shape). Returns nullopt for scheduler_factory specs, n < 2 and every
/// other kind. Equals pp::make_scheduler(...)->lumping() for every kind
/// (tested). `protocol` is unused; the parameter stays for existing callers.
std::optional<pp::UrnLumping> scheduler_lumping(
    const RunSpec& spec, const pp::Protocol* protocol = nullptr);

/// Deterministic seed derivation (splitmix64-based):
///   spec seed  = spec.seed, or mix(base_seed, spec_index) when unset;
///   trial seed = mix(spec_seed, trial_index).
/// Results therefore depend only on (spec, indices), never on thread count
/// or execution order.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);
std::uint64_t spec_seed(const RunSpec& spec, std::uint64_t base_seed,
                        std::size_t spec_index);
std::uint64_t trial_seed(std::uint64_t spec_seed, std::uint32_t trial_index);

}  // namespace circles::sim
