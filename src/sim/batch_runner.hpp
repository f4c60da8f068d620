// BatchRunner: execute a vector of RunSpecs across a batch's threads.
//
// Each spec is prepared once (sim::PreparedSpec: checks, backend choice,
// kernel, engine); every (spec, trial) pair is then an independent job whose
// RNG stream is a pure function of (spec seed, trial index) — see
// run_spec.hpp — so the results are bitwise identical regardless of thread
// count or scheduling order. Trials are executed work-stealing style over a
// flattened job list; each run is serial inside. The per-spec aggregation
// runs sequentially afterwards, in trial order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "kernel/compiled_protocol.hpp"
#include "metrics/manifest.hpp"
#include "obs/envelope.hpp"
#include "sim/run_spec.hpp"
#include "util/stats.hpp"

namespace circles::dense {
class DenseEngine;
}

namespace circles::fluid {
class FluidEngine;
}

namespace circles::metrics {
class MetricsRegistry;
}

namespace circles::trace {
class Tracer;
}

namespace circles::sim {

/// One trial's full record.
struct TrialRecord {
  std::uint64_t seed = 0;  // derived trial seed actually used
  analysis::Workload workload;
  TrialOutcome outcome;

  /// Circles instrumentation (valid iff spec.circles_stats).
  CirclesStats circles;

  // Valid iff spec.track_used_states.
  std::uint64_t used_states = 0;

  // Valid iff spec.chemical_time.
  double stabilization_time = 0.0;
  double convergence_time = 0.0;

  /// Wall-clock duration of this trial (workload materialization through
  /// grading), measured on whichever worker thread ran it.
  double wall_ms = 0.0;

  /// One trace per spec.probes entry (index-aligned), recorded on whichever
  /// backend ran the trial.
  std::vector<obs::TraceTable> traces;
};

/// Aggregated result of one spec's trials.
struct SpecResult {
  RunSpec spec;
  std::vector<TrialRecord> trials;  // cleared when keep_trials is off

  /// Backend that actually ran the trials: spec.backend, or the concrete
  /// engine the runner picked when spec.backend is EngineKind::kAuto
  /// (scheduler lumpability + n + state count decide — see EngineKind).
  EngineKind backend_resolved = EngineKind::kAgentArray;
  /// backend=auto only: the dispatch rule that picked backend_resolved,
  /// e.g. "n=1000 >= 64, lumpable, 125 states <= n -> dense_batched";
  /// empty for explicit backends.
  std::string auto_reason;

  /// Kernel compile stats for this spec's protocol. The kernel is compiled
  /// exactly once per spec and shared by every trial on every thread; build
  /// time is reported here so it is never attributed to simulation wall
  /// clock.
  kernel::CompileStats kernel_stats;

  std::uint32_t trial_count = 0;
  std::uint32_t correct = 0;
  std::uint32_t silent = 0;
  std::uint32_t budget_exhausted = 0;
  std::uint32_t consensus = 0;  // silent consensus on *some* symbol
  std::uint32_t decomposition_matches = 0;

  std::uint64_t braket_invariant_violations = 0;
  std::uint64_t potential_descent_violations = 0;
  std::uint64_t scalar_energy_increases = 0;

  util::Summary interactions;
  util::Summary state_changes;
  util::Summary ket_exchanges;       // all-zero unless circles_stats
  util::Summary stabilization_time;  // all-zero unless chemical_time
  util::Summary convergence_time;    // all-zero unless chemical_time
  /// Per-trial wall-clock latency (ms); p50/p90 are the envelope numbers to
  /// quote for scheduling/queueing decisions.
  util::Summary trial_ms;

  /// Provenance: what ran, where, when. Always filled by run(); written to
  /// disk alongside the metric sink when spec.metrics_out is set.
  metrics::RunManifest manifest;

  /// One quantile envelope per spec.probes entry (index-aligned): the
  /// per-trial traces resampled onto a common grid with p10/p50/p90 columns
  /// per recorded quantity (see obs::envelope). Computed before keep_trials
  /// discards the per-trial records.
  std::vector<obs::TraceTable> trace_envelopes;

  double correct_rate() const {
    return trial_count ? double(correct) / trial_count : 0.0;
  }
  double silent_rate() const {
    return trial_count ? double(silent) / trial_count : 0.0;
  }
  double decomposition_rate() const {
    return trial_count ? double(decomposition_matches) / trial_count : 0.0;
  }
  bool all_correct() const { return correct == trial_count; }
  bool all_silent() const { return silent == trial_count; }
};

/// Snapshot handed to the progress callback on a wall-clock cadence while
/// trials execute (plus one final call after the last trial).
struct BatchProgress {
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
  std::uint32_t specs_done = 0;
  std::uint32_t specs_total = 0;
  /// Interactions simulated by *completed* trials.
  std::uint64_t interactions = 0;
  double elapsed_s = 0.0;

  double interactions_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(interactions) / elapsed_s
                           : 0.0;
  }
};

struct BatchOptions {
  /// Across-trial width; 0 = every core. Capped at
  /// std::thread::hardware_concurrency() and at the job count; the
  /// manifests and the batch.threads gauge record the width that ran.
  /// run() starts width - 1 threads for the batch and joins them before
  /// it returns; width 1 runs every trial on the calling thread.
  std::uint32_t threads = 0;

  /// Base seed feeding specs that do not fix their own seed.
  std::uint64_t base_seed = 1;

  /// Retain per-trial records in the SpecResult (memory vs detail).
  bool keep_trials = true;

  /// Batch-wide telemetry registry (engines flush work counters into it,
  /// run() adds phase timers and kernel stats). Null = telemetry off.
  /// Specs with their own `metrics_out` sink get a private registry
  /// instead, so per-spec files do not mix with batch-wide aggregation.
  metrics::MetricsRegistry* metrics = nullptr;

  /// Batch-wide span tracer (see src/trace/): run() emits setup/run/
  /// aggregate phase spans, per-trial spans and the kernel-compile span
  /// into it, engines add their own, and failing trials dump the flight
  /// recorder with a greppable REPRO line to stderr. Null = tracing off.
  /// Specs with their own `spans_out` path get a private tracer instead,
  /// written as Chrome Trace Event Format JSON when run() finishes.
  trace::Tracer* tracer = nullptr;

  /// Progress heartbeat: invoked from a dedicated monitor thread every
  /// `progress_interval_s` seconds of wall clock while trials run, and once
  /// more after the last trial completes. Default off; never invoked
  /// concurrently with itself.
  std::function<void(const BatchProgress&)> progress;
  double progress_interval_s = 2.0;
};

/// Rejects, with a std::invalid_argument naming the spec, a spec that no
/// trial can run: no trials, fewer than two agents, explicit counts or
/// circles_stats or probes that do not fit `protocol`, an exact tie or a
/// margin-1 workload that cannot be built, feature combinations no backend
/// supports, misplaced fluid tolerances, or a population beyond a concrete
/// backend's range. It also rejects a spec that asks for threads inside a
/// run (run_threads or engine.run_threads other than 1) or attaches its
/// own engine.metrics / engine.tracer: telemetry attaches batch-wide
/// (BatchOptions) or per spec through the metrics= / spans= sinks.
/// PreparedSpec calls it before building anything (and range-checks
/// backend=auto specs once resolved).
void validate_spec(const RunSpec& spec, const pp::Protocol& protocol);

/// One spec made ready to run: its protocol, compiled kernel, resolved
/// backend, engine options and, on the count tiers, its one dense or fluid
/// engine — built once and shared by every trial on every thread.
/// Construction runs every per-spec check (validate_spec, backend feature
/// checks, auto resolution with its fluid -> dense_batched fallback when
/// the drift table refuses the protocol, the population range) and throws
/// std::invalid_argument naming the spec. run_trial is const and
/// thread-safe.
class PreparedSpec {
 public:
  /// `metrics` and `tracer` receive the engines' counters and spans.
  /// `compile` lowers the kernel (its count_sparse_hits follows whether a
  /// registry is attached); the kernel-equivalence tests force the sparse
  /// table through it.
  PreparedSpec(const RunSpec& spec, const ProtocolRegistry& registry,
               metrics::MetricsRegistry* metrics = nullptr,
               trace::Tracer* tracer = nullptr,
               kernel::CompileOptions compile = {});
  PreparedSpec(PreparedSpec&&) noexcept;
  ~PreparedSpec();

  /// Runs one trial: the workload on its salted stream, then (count tiers)
  /// the engine-seed split and the urn split of the trial stream, or
  /// (agent array) the sim::AgentTrial that run_trial uses too, plus any
  /// fault bursts; the run; the grade. `trial_seed` is
  /// sim::trial_seed(spec seed, trial index).
  TrialRecord run_trial(std::uint64_t trial_seed) const;

  const RunSpec& spec() const { return spec_; }
  const kernel::CompiledProtocol& kernel() const { return *kernel_; }
  /// The concrete backend the trials run on (never kAuto).
  EngineKind backend() const { return backend_; }
  /// backend=auto only: the rule that picked backend() (see
  /// SpecResult::auto_reason); empty for explicit backends.
  const std::string& auto_reason() const { return auto_reason_; }

 private:
  RunSpec spec_;
  std::unique_ptr<pp::Protocol> protocol_;
  std::shared_ptr<const kernel::CompiledProtocol> kernel_;
  EngineKind backend_ = EngineKind::kAgentArray;
  std::string auto_reason_;
  pp::EngineOptions engine_options_;
  std::unique_ptr<dense::DenseEngine> dense_;
  std::unique_ptr<fluid::FluidEngine> fluid_;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {},
                       const ProtocolRegistry& registry =
                           ProtocolRegistry::global());

  /// Executes all specs; result i corresponds to specs[i]. Throws
  /// std::invalid_argument up front for unknown protocols / bad params.
  std::vector<SpecResult> run(std::span<const RunSpec> specs) const;
  std::vector<SpecResult> run(std::initializer_list<RunSpec> specs) const;

  SpecResult run_one(const RunSpec& spec) const;

  const BatchOptions& options() const { return options_; }

  /// Prepares `spec` alone and runs its trial with seed `trial_seed`: the
  /// entry point REPRO lines replay through (sweep --spec/--trial-seed).
  /// Same checks and results as that trial inside run().
  static TrialRecord execute_trial(
      const RunSpec& spec, std::uint64_t trial_seed,
      const ProtocolRegistry& registry = ProtocolRegistry::global());

 private:
  BatchOptions options_;
  const ProtocolRegistry* registry_;
};

}  // namespace circles::sim
