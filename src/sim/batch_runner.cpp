#include "sim/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "crn/gillespie.hpp"
#include "dense/dense_config.hpp"
#include "dense/dense_engine.hpp"
#include "dense/urn_config.hpp"
#include "fluid/fluid_engine.hpp"
#include "metrics/metrics.hpp"
#include "pp/schedulers/clustered.hpp"
#include "pp/schedulers/shuffled_sweep.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace circles::sim {

namespace {

/// ASCII "WORKLOAD": salt separating the workload-materialization stream
/// from the population/scheduler stream of the same trial.
constexpr std::uint64_t kWorkloadSalt = 0x574f524b4c4f4144ULL;

/// Counts distinct states ever occupied during one run.
class UsedStatesMonitor final : public pp::Monitor {
 public:
  void on_start(const pp::Population& population,
                const pp::Protocol&) override {
    for (const pp::StateId s : population.present_states()) seen_.insert(s);
  }
  void on_interaction(const pp::InteractionEvent& event,
                      const pp::Population&) override {
    seen_.insert(event.initiator_after);
    seen_.insert(event.responder_after);
  }
  std::uint64_t used() const { return seen_.size(); }

 private:
  std::unordered_set<pp::StateId> seen_;
};

/// Milliseconds elapsed since `start` on the steady clock.
double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Sink path -> manifest path: "runs/cell3.jsonl" -> "runs/cell3.manifest.json"
/// (an unrecognized or missing extension just gets ".manifest.json" appended).
std::string manifest_path(const std::string& sink_path) {
  const std::size_t dot = sink_path.find_last_of('.');
  const std::size_t slash = sink_path.find_last_of('/');
  if (dot != std::string::npos &&
      (slash == std::string::npos || dot > slash)) {
    const std::string ext = sink_path.substr(dot);
    if (ext == ".jsonl" || ext == ".csv" || ext == ".json") {
      return sink_path.substr(0, dot) + ".manifest.json";
    }
  }
  return sink_path + ".manifest.json";
}

/// Builds the flight-recorder context for one failing trial: the full spec
/// string with the resolved backend baked in (so the REPRO line replays on
/// the same concrete engine), plus the graded verdict when the trial
/// produced one (`rec == nullptr`: the trial died in an exception).
trace::FailureContext failure_context(const RunSpec& spec, EngineKind backend,
                                      std::uint32_t trial_index,
                                      std::uint64_t trial_seed,
                                      const TrialRecord* rec) {
  trace::FailureContext ctx;
  RunSpec resolved = spec;
  resolved.backend = backend;
  // Forensics hygiene: the replay must not clobber the original run's sink
  // files, so the REPRO spec drops the output paths (they never affect
  // results — tracing and metrics are observation-only by contract).
  resolved.metrics_out.clear();
  resolved.spans_out.clear();
  ctx.spec = resolved.to_string();
  ctx.backend = sim::to_string(backend);
  ctx.trial_index = trial_index;
  ctx.trial_seed = trial_seed;
  if (rec != nullptr) {
    const pp::RunResult& run = rec->outcome.run;
    ctx.reason = run.budget_exhausted ? "budget_exhausted" : "grader fail";
    ctx.verdict = "correct=" + std::to_string(rec->outcome.correct ? 1 : 0) +
                  " silent=" + std::to_string(run.silent ? 1 : 0) +
                  " budget_exhausted=" +
                  std::to_string(run.budget_exhausted ? 1 : 0) +
                  " interactions=" + std::to_string(run.interactions) +
                  " state_changes=" + std::to_string(run.state_changes);
    std::string outputs;
    for (std::size_t i = 0; i < run.final_outputs.size(); ++i) {
      if (i != 0) outputs += ' ';
      outputs += std::to_string(run.final_outputs[i]);
    }
    ctx.final_outputs = outputs;
  }
  return ctx;
}

void aggregate(SpecResult& result, bool keep_trials) {
  result.trial_count = static_cast<std::uint32_t>(result.trials.size());
  std::vector<double> interactions, state_changes, exchanges, stabilization,
      convergence, trial_ms;
  interactions.reserve(result.trials.size());
  for (const TrialRecord& rec : result.trials) {
    result.correct += rec.outcome.correct ? 1 : 0;
    result.silent += rec.outcome.run.silent ? 1 : 0;
    result.budget_exhausted += rec.outcome.run.budget_exhausted ? 1 : 0;
    result.consensus +=
        (rec.outcome.run.silent && rec.outcome.consensus.has_value()) ? 1 : 0;
    result.decomposition_matches += rec.circles.decomposition_matches ? 1 : 0;
    result.braket_invariant_violations +=
        rec.circles.braket_invariant_violations;
    result.potential_descent_violations +=
        rec.circles.potential_descent_violations;
    result.scalar_energy_increases += rec.circles.scalar_energy_increases;
    interactions.push_back(static_cast<double>(rec.outcome.run.interactions));
    state_changes.push_back(static_cast<double>(rec.outcome.run.state_changes));
    exchanges.push_back(static_cast<double>(rec.circles.ket_exchanges));
    stabilization.push_back(rec.stabilization_time);
    convergence.push_back(rec.convergence_time);
    trial_ms.push_back(rec.wall_ms);
  }
  result.interactions = util::summarize(interactions);
  result.state_changes = util::summarize(state_changes);
  result.ket_exchanges = util::summarize(exchanges);
  result.stabilization_time = util::summarize(stabilization);
  result.convergence_time = util::summarize(convergence);
  result.trial_ms = util::summarize(trial_ms);

  // Cross-trial trace aggregation: one quantile envelope per probe spec,
  // resampled onto the probe's grid shape (before keep_trials can discard
  // the per-trial traces).
  result.trace_envelopes.clear();
  for (std::size_t j = 0; j < result.spec.probes.size(); ++j) {
    std::vector<const obs::TraceTable*> traces;
    traces.reserve(result.trials.size());
    for (const TrialRecord& rec : result.trials) {
      if (j < rec.traces.size()) traces.push_back(&rec.traces[j]);
    }
    obs::EnvelopeOptions envelope_options;
    const obs::GridSpec& grid = result.spec.probes[j].grid;
    envelope_options.points = grid.points;
    envelope_options.spacing = grid.spacing;
    envelope_options.grid_fractions = grid.fractions;
    if (result.spec.chemical_time) {
      envelope_options.x_column = "chemical_time";
    } else {
      envelope_options.x_column = "interactions";
      // All-zero on discrete backends; quantiles of it are noise.
      envelope_options.exclude_columns = {"chemical_time"};
    }
    result.trace_envelopes.push_back(obs::envelope(traces, envelope_options));
  }

  if (!keep_trials) {
    result.trials.clear();
    result.trials.shrink_to_fit();
  }
}

/// Largest population each engine represents: the agent array indexes
/// agents with a 32-bit pp::AgentId, and the dense engines' active-pair
/// counts (up to n(n-1)) must fit in 64 bits. Fluid has no bound.
constexpr std::uint64_t kAgentMaxN = (1ull << 32) - 1;
constexpr std::uint64_t kDenseMaxN = 1ull << 32;

/// Rejects a population the concrete `backend` cannot represent.
void check_population_range(const RunSpec& spec, EngineKind backend) {
  if (backend == EngineKind::kFluid) return;
  const std::uint64_t limit =
      backend == EngineKind::kAgentArray ? kAgentMaxN : kDenseMaxN;
  if (spec.effective_n() <= limit) return;
  throw std::invalid_argument(
      "RunSpec '" + spec.to_string() + "' has n=" +
      std::to_string(spec.effective_n()) + " agents, beyond backend=" +
      sim::to_string(backend) + "'s range of n <= " + std::to_string(limit) +
      "; use backend=fluid, or backend=auto to pick a backend per spec");
}

}  // namespace

void validate_spec(const RunSpec& spec, const pp::Protocol& protocol) {
  if (spec.trials == 0) {
    throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                "' needs trials >= 1");
  }
  if (spec.effective_n() < 2) {
    throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                "' needs a population of >= 2 agents");
  }
  if (spec.workload.family == WorkloadSpec::Family::kExplicit &&
      spec.workload.counts.size() != protocol.num_colors()) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() + "' fixes " +
        std::to_string(spec.workload.counts.size()) +
        " per-color counts but protocol '" + spec.protocol + "' has k=" +
        std::to_string(protocol.num_colors()) + " colors");
  }
  if (spec.workload.family == WorkloadSpec::Family::kExactTie &&
      !analysis::exact_tie_feasible(spec.n, protocol.num_colors(),
                                    spec.workload.tied_colors)) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() + "' asks for an exact tie of " +
        std::to_string(spec.workload.tied_colors) + " colors among k=" +
        std::to_string(protocol.num_colors()) + " at n=" +
        std::to_string(spec.n) +
        ", which cannot be built: a tie needs 2 <= t <= k and n >= t, and "
        "the agents left over after the tied colors must fit strictly below "
        "the tied count on the other colors");
  }
  if (spec.workload.family == WorkloadSpec::Family::kCloseMargin &&
      !analysis::close_margin_feasible(spec.n, protocol.num_colors())) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() + "' asks for a margin-1 workload "
        "among k=" + std::to_string(protocol.num_colors()) + " colors at n=" +
        std::to_string(spec.n) +
        ", which cannot be built: a winner ahead of a runner-up needs k >= 2 "
        "and n >= 3");
  }
  if (spec.circles_stats &&
      dynamic_cast<const core::CirclesProtocol*>(&protocol) == nullptr) {
    throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                "' requests circles_stats for non-circles "
                                "protocol '" + spec.protocol + "'");
  }
  for (const obs::ProbeSpec& probe_spec : spec.probes) {
    // Probe/protocol mismatches (e.g. an energy probe on a weightless
    // protocol) fail here, naming the spec, instead of inside a worker.
    try {
      (void)obs::make_probe(probe_spec, protocol);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                  "': " + e.what());
    }
  }
  if (spec.scheduler == pp::SchedulerKind::kShuffledSweep &&
      spec.effective_n() > pp::ShuffledSweepScheduler::kMaxAgents) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() + "' runs the shuffled scheduler on " +
        std::to_string(spec.effective_n()) + " agents; it materializes all " +
        "n(n-1) ordered pairs, so it takes n <= " +
        std::to_string(pp::ShuffledSweepScheduler::kMaxAgents) +
        " (use scheduler=uniform for larger populations)");
  }
  if (spec.scheduler == pp::SchedulerKind::kClustered) {
    // Cluster sizes that do not add up to n, or more clusters than agents,
    // fail here rather than inside a trial.
    try {
      pp::clustered_lumping(spec.effective_n(), spec.clustered_options())
          .validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                  "': " + e.what());
    }
  }
  if ((spec.clusters != 0 || !spec.cluster_sizes.empty()) &&
      spec.scheduler != pp::SchedulerKind::kClustered) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() +
        "' sets clusters= but its scheduler is '" +
        pp::to_string(spec.scheduler) +
        "'; the cluster shape belongs to scheduler=clustered");
  }
  if ((spec.rtol != 0.0 || spec.atol != 0.0) &&
      spec.backend != EngineKind::kFluid &&
      spec.backend != EngineKind::kAuto) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() +
        "' sets rtol/atol, which are fluid-integrator tolerances, on "
        "backend=" + sim::to_string(spec.backend) +
        "; use backend=fluid (or backend=auto) or drop the tolerances");
  }
  if (spec.rtol < 0.0 || spec.atol < 0.0) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() +
        "' sets a negative fluid-integrator tolerance (rtol=" +
        std::to_string(spec.rtol) + ", atol=" + std::to_string(spec.atol) +
        "); tolerances must be positive (0 = engine default)");
  }
  if (spec.run_threads != 1 || spec.engine.run_threads != 1) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() + "' asks for " +
        std::to_string(spec.run_threads != 1 ? spec.run_threads
                                             : spec.engine.run_threads) +
        " threads inside a run; every run is serial inside (threads=1), "
        "trials spread across the batch's threads instead (sweep --threads)");
  }
  if (spec.engine.metrics != nullptr || spec.engine.tracer != nullptr) {
    throw std::invalid_argument(
        "RunSpec '" + spec.to_string() +
        "' attaches its own engine metrics registry or tracer; attach "
        "telemetry batch-wide (BatchOptions::metrics / tracer) or per spec "
        "with the metrics= / spans= sinks");
  }

  if (spec.backend != EngineKind::kAuto) {
    check_population_range(spec, spec.backend);
  }
}

namespace {

/// registry.create, with a refusal (unknown protocol, k out of range)
/// naming the spec.
std::unique_ptr<pp::Protocol> create_protocol(
    const RunSpec& spec, const ProtocolRegistry& registry) {
  try {
    return registry.create(spec.protocol, spec.params);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                "': " + e.what());
  }
}

/// One count-level trial on a prepared dense or fluid engine. Stream
/// discipline: the engine runs on a seed split off the head of the trial
/// stream (the agent path spends the head on the color shuffle, which
/// counts have no use for); multi-urn trials then spend the continuing
/// stream on the urn split — the count-level image of that shuffle. A fluid
/// and a dense trial with equal seeds therefore start from identical
/// configurations.
template <class CountEngine>
pp::RunResult run_counts(const CountEngine& engine,
                         const pp::Protocol& protocol,
                         const analysis::Workload& workload,
                         std::uint64_t trial_seed, obs::Recorder* recorder) {
  util::Rng rng(trial_seed);
  const std::uint64_t engine_seed = rng.split()();
  if (engine.lumping().num_urns() > 1) {
    dense::UrnConfig config = dense::UrnConfig::from_workload(
        protocol, workload, engine.lumping().sizes, rng);
    return engine.run(config, engine_seed, recorder);
  }
  dense::DenseConfig config =
      dense::DenseConfig::from_workload(protocol, workload);
  return engine.run(config, engine_seed, recorder);
}

}  // namespace

PreparedSpec::PreparedSpec(const RunSpec& spec,
                           const ProtocolRegistry& registry,
                           metrics::MetricsRegistry* metrics,
                           trace::Tracer* tracer,
                           kernel::CompileOptions compile)
    : spec_(spec), protocol_(create_protocol(spec, registry)) {
  validate_spec(spec, *protocol_);

  // Resolve the concrete backend. Auto dispatch: agent-only features or a
  // non-lumpable scheduler force the agent array; otherwise the
  // population size and state count pick the count-level engine.
  std::string agent_only_features;
  for (const auto& [on, name] :
       {std::pair{spec.circles_stats, "circles_stats"},
        std::pair{spec.track_used_states, "track_used_states"},
        std::pair{spec.reboot_faults > 0, "faults"},
        std::pair{static_cast<bool>(spec.grader), "grader"},
        std::pair{static_cast<bool>(spec.scheduler_factory),
                  "scheduler_factory"},
        std::pair{spec.chemical_time, "chemical_time"}}) {
    if (!on) continue;
    if (!agent_only_features.empty()) agent_only_features += ", ";
    agent_only_features += name;
  }
  std::optional<pp::UrnLumping> lumping;
  if (spec.backend != EngineKind::kAgentArray &&
      agent_only_features.empty()) {
    try {
      lumping = scheduler_lumping(spec, protocol_.get());
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                  "': " + e.what());
    }
  }
  backend_ = spec.backend;
  if (backend_ == EngineKind::kAuto) {
    const std::uint64_t n = spec.effective_n();
    const std::uint64_t states = protocol_->num_states();
    const std::string n_text = "n=" + std::to_string(n);
    backend_ = EngineKind::kAgentArray;
    if (!agent_only_features.empty()) {
      auto_reason_ = "agent-only features (" + agent_only_features + ")";
    } else if (!lumping.has_value()) {
      auto_reason_ =
          "scheduler " + pp::to_string(spec.scheduler) + " not lumpable";
    } else if (n < kAutoDenseMinN) {
      auto_reason_ = n_text + " < " + std::to_string(kAutoDenseMinN);
    } else if (states > n) {
      auto_reason_ = std::to_string(states) + " states > " + n_text;
    } else if (n >= kAutoFluidMinN) {
      backend_ = EngineKind::kFluid;
      auto_reason_ = n_text + " >= " + std::to_string(kAutoFluidMinN) +
                     ", lumpable";
    } else {
      backend_ = EngineKind::kDenseBatched;
      auto_reason_ = n_text + " >= " + std::to_string(kAutoDenseMinN) +
                     ", lumpable, " + std::to_string(states) +
                     " states <= n";
    }
    auto_reason_ += " -> " + sim::to_string(backend_);
  }

  if (backend_ != EngineKind::kAgentArray) {
    // The dense backends have no agent array. Count-level probes
    // (spec.probes) run on every backend; the checks below single out
    // what genuinely cannot be expressed on counts, each with its own
    // message so the fix is obvious.
    if (spec.circles_stats || spec.track_used_states) {
      throw std::invalid_argument(
          "RunSpec '" + spec.to_string() +
          "' requests pp::Monitor-based instrumentation (circles_stats / "
          "track_used_states), which needs the agent backend's "
          "per-interaction events; dense backends observe runs through "
          "count-level snapshots — attach an obs::Probe via "
          "RunSpec::probes (trace=...) instead");
    }
    if (spec.reboot_faults > 0 || spec.grader || spec.scheduler_factory) {
      throw std::invalid_argument(
          "RunSpec '" + spec.to_string() +
          "' addresses individual agents (reboot_faults / grader / "
          "scheduler_factory), which the dense count representation "
          "cannot express; use backend=agent, or backend=auto to pick a "
          "backend per spec");
    }
    if (spec.chemical_time) {
      if (backend_ == EngineKind::kFluid) {
        throw std::invalid_argument(
            "RunSpec '" + spec.to_string() +
            "' combines chemical_time with the fluid backend; the fluid "
            "trajectory already advances the chemical clock (trace= "
            "probes record the chemical_time column), but the chemical "
            "stabilization/convergence statistics ride the agent engine's "
            "event stream — use backend=agent for those");
      }
      throw std::invalid_argument(
          "RunSpec '" + spec.to_string() +
          "' combines chemical_time with a dense backend; the chemical "
          "clock rides the agent engine's event stream — use "
          "backend=agent (count probes still record chemical-time "
          "cadence there)");
    }
    if (!lumping.has_value()) {
      throw std::invalid_argument(
          "RunSpec '" + spec.to_string() + "' requests backend=" +
          sim::to_string(spec.backend) + " with scheduler '" +
          pp::to_string(spec.scheduler) +
          "', which has no exact count-level lumping "
          "(count-simulable schedulers: uniform, clustered); use "
          "backend=agent for this scheduler, or backend=auto to pick a "
          "backend per spec");
    }
  }

  // Options for every engine of this spec: the spec's, with the caller's
  // registry and tracer attached.
  engine_options_ = spec.engine;
  engine_options_.metrics = metrics;
  engine_options_.tracer = tracer;
  {
    // The compile runs once per spec on the preparing thread; its span
    // lands in the spec's own timeline so build time is visibly separate
    // from trials.
    const trace::ScopedSpan compile_span(
        trace::buffer(engine_options_.tracer), "kernel.compile");
    // Sparse-cache hit counting costs one relaxed fetch_add per lookup on
    // THE hot path of sparse kernels; only pay it when someone is looking.
    compile.count_sparse_hits = engine_options_.metrics != nullptr;
    kernel_ = std::make_shared<const kernel::CompiledProtocol>(*protocol_,
                                                               compile);
  }
  if (backend_ == EngineKind::kFluid) {
    fluid::FluidOptions fluid_options;
    if (spec.rtol > 0.0) fluid_options.rtol = spec.rtol;
    if (spec.atol > 0.0) fluid_options.atol = spec.atol;
    try {
      fluid_ = std::make_unique<fluid::FluidEngine>(kernel_, engine_options_,
                                                    fluid_options, *lumping);
    } catch (const std::invalid_argument& e) {
      // The drift-table compile refuses protocols whose input-state
      // closure is too wide for the mean-field representation.
      if (spec.backend != EngineKind::kAuto) {
        throw std::invalid_argument("RunSpec '" + spec.to_string() +
                                    "': " + e.what());
      }
      // Auto picked fluid on size alone; fall back one tier.
      backend_ = EngineKind::kDenseBatched;
      auto_reason_ += "; drift table refused the protocol -> dense_batched";
    }
  }
  // Concrete specs were range-checked by validate_spec; auto ones are
  // checked once their backend (and any fluid fallback) is final.
  if (spec.backend == EngineKind::kAuto) {
    check_population_range(spec, backend_);
  }
  if (backend_ == EngineKind::kDense ||
      backend_ == EngineKind::kDenseBatched) {
    dense_ = std::make_unique<dense::DenseEngine>(
        kernel_, engine_options_,
        backend_ == EngineKind::kDenseBatched ? dense::DenseMode::kBatched
                                              : dense::DenseMode::kPerStep,
        *lumping);
  }
}

PreparedSpec::PreparedSpec(PreparedSpec&&) noexcept = default;
PreparedSpec::~PreparedSpec() = default;

TrialRecord PreparedSpec::run_trial(std::uint64_t trial_seed) const {
  const RunSpec& spec = spec_;
  const pp::Protocol& protocol = *protocol_;
  TrialRecord rec;
  rec.seed = trial_seed;

  // Trial wall clock: stamped on every return path via RAII, so latency
  // quantiles cover dense/fluid and agent trials alike.
  struct WallClock {
    TrialRecord& rec;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~WallClock() { rec.wall_ms = elapsed_ms(start); }
  } wall_clock{rec};

  // One span per trial, on whichever worker thread runs it; engines nest
  // their own spans inside. Registers the thread on first use so batch
  // workers get distinct named tracks in the exported timeline.
  const trace::ScopedSpan trial_span(
      trace::buffer(engine_options_.tracer, "trial-worker"), "batch.trial");
  util::Rng workload_rng(mix_seed(trial_seed, kWorkloadSalt));
  rec.workload =
      spec.workload.materialize(workload_rng, spec.n, protocol.num_colors());
  CIRCLES_CHECK_MSG(rec.workload.k() == protocol.num_colors(),
                    "workload color count does not match the protocol");

  std::optional<pp::OutputSymbol> expected;
  if (spec.grading == Grading::kTieAware) {
    const auto winner = rec.workload.winner();
    // Tie-handling protocols place their TIE symbol at index k.
    expected = winner.has_value() ? *winner : protocol.num_colors();
  }

  // Probe pipeline, shared by every backend: one recorder per trial, one
  // probe instance per spec entry, traces collected onto the record.
  std::vector<std::unique_ptr<obs::Probe>> probe_objects;
  std::optional<obs::Recorder> recorder;
  if (!spec.probes.empty()) {
    obs::RecorderOptions recorder_options;
    recorder_options.interaction_horizon = spec.engine.max_interactions;
    recorder_options.tracer = engine_options_.tracer;
    if (spec.chemical_time) {
      recorder_options.clock = obs::RecorderOptions::Clock::kChemical;
      recorder_options.chemical_horizon =
          static_cast<double>(spec.engine.max_interactions) /
          static_cast<double>(std::max<std::uint64_t>(rec.workload.n(), 1));
    }
    recorder.emplace(recorder_options);
    // ConvergenceProbe grades against the same target symbol the trial
    // grading uses: the tie-aware expectation when set, else the workload's
    // unique plurality winner.
    std::optional<pp::OutputSymbol> target = expected;
    if (!target.has_value()) {
      if (const auto winner = rec.workload.winner()) target = *winner;
    }
    for (const obs::ProbeSpec& probe_spec : spec.probes) {
      probe_objects.push_back(obs::make_probe(probe_spec, protocol, target));
      recorder->add(probe_objects.back().get(), probe_spec.grid);
    }
  }
  obs::Recorder* const recorder_ptr =
      recorder.has_value() ? &*recorder : nullptr;
  const auto collect_traces = [&]() {
    if (recorder_ptr == nullptr) return;
    rec.traces.reserve(probe_objects.size());
    for (const auto& probe : probe_objects) {
      rec.traces.push_back(probe->take_table());
    }
  };

  if (backend_ != EngineKind::kAgentArray) {
    const pp::RunResult run =
        dense_ != nullptr
            ? run_counts(*dense_, protocol, rec.workload, trial_seed,
                         recorder_ptr)
            : run_counts(*fluid_, protocol, rec.workload, trial_seed,
                         recorder_ptr);
    rec.outcome = grade_run(run, rec.workload, expected);
    collect_traces();
    return rec;
  }

  const auto* circles =
      spec.circles_stats
          ? dynamic_cast<const core::CirclesProtocol*>(&protocol)
          : nullptr;
  CIRCLES_CHECK_MSG(!spec.circles_stats || circles != nullptr,
                    "circles_stats requires the circles protocol");
  std::optional<CirclesInstruments> instruments;
  UsedStatesMonitor used_states;
  std::vector<pp::Monitor*> monitors;
  if (circles != nullptr) {
    const auto circles_monitors = instruments.emplace(*circles).monitors();
    monitors.assign(circles_monitors.begin(), circles_monitors.end());
  }
  if (spec.track_used_states) monitors.push_back(&used_states);

  // The same trial body as sim::run_trial, so a RunSpec trial with seed s
  // reproduces run_trial(..., {.seed = s}) bit for bit.
  TrialOptions options;
  options.scheduler = spec.scheduler;
  options.seed = trial_seed;
  options.scheduler_factory = spec.scheduler_factory;
  options.clustered = spec.clustered_options();
  options.recorder = recorder_ptr;
  options.chemical_time = spec.chemical_time;
  AgentTrial trial(protocol, rec.workload, options, monitors, kernel_.get());

  // Transient-fault injection: run in bursts; after each burst reboot one
  // random agent to its input state (it keeps its reading, loses its
  // working memory).
  for (std::uint32_t f = 0; f < spec.reboot_faults; ++f) {
    pp::EngineOptions burst = engine_options_;
    burst.max_interactions =
        spec.fault_burst_min + (spec.fault_burst_span
                                    ? trial.rng.uniform_below(
                                          spec.fault_burst_span)
                                    : 0);
    burst.stop_when_silent = false;
    (void)trial.run(burst);
    const auto victim =
        static_cast<pp::AgentId>(trial.rng.uniform_below(trial.colors.size()));
    trial.population->set_state(victim,
                                protocol.input(trial.colors[victim]));
  }

  const pp::RunResult run = trial.run(engine_options_);
  rec.outcome = grade_run(run, rec.workload, expected);
  if (spec.grader) {
    rec.outcome.correct = spec.grader(protocol, rec.workload, trial.colors,
                                      *trial.population, run);
  }
  if (instruments.has_value()) {
    rec.circles = instruments->stats(*trial.population, rec.workload);
  }
  if (spec.track_used_states) rec.used_states = used_states.used();
  if (const crn::ExponentialClockMonitor* clock = trial.clock()) {
    rec.stabilization_time = clock->last_change_time();
    rec.convergence_time = clock->last_output_change_time();
  }
  collect_traces();
  return rec;
}

BatchRunner::BatchRunner(BatchOptions options, const ProtocolRegistry& registry)
    : options_(options), registry_(&registry) {}

TrialRecord BatchRunner::execute_trial(const RunSpec& spec,
                                       std::uint64_t trial_seed,
                                       const ProtocolRegistry& registry) {
  return PreparedSpec(spec, registry).run_trial(trial_seed);
}

std::vector<SpecResult> BatchRunner::run(
    std::span<const RunSpec> specs) const {
  const auto batch_start = std::chrono::steady_clock::now();
  // The setup phase span opens on the batch-wide tracer only (per-spec
  // tracers do not exist yet); run/aggregate phases cover every attached
  // tracer — see phase_begin below.
  trace::TraceBuffer* batch_tb = trace::buffer(options_.tracer);
  if (batch_tb != nullptr) batch_tb->begin("batch.setup");
  // Environment fields (git describe, host, build type) are shared by every
  // spec of the batch; collected once, stamped with the batch start time.
  const metrics::RunManifest base_manifest = metrics::RunManifest::collect();

  // Across-trial width: the core count caps it, as does the job count.
  // Results are bitwise identical at every width — this is purely a
  // wall-clock decision.
  const std::uint32_t cores =
      std::max(std::thread::hardware_concurrency(), 1u);
  std::size_t total_jobs = 0;
  for (const RunSpec& spec : specs) total_jobs += spec.trials;
  const std::uint32_t threads = static_cast<std::uint32_t>(
      std::min<std::size_t>({options_.threads == 0 ? cores : options_.threads,
                             cores, std::max<std::size_t>(total_jobs, 1)}));

  // Telemetry registry and span tracer per spec: the batch-wide ones from
  // BatchOptions, overridden by private ones for specs that want their own
  // sink files (spec.metrics_out / spec.spans_out, written at the end of
  // run()).
  std::vector<std::unique_ptr<metrics::MetricsRegistry>> owned_registries(
      specs.size());
  std::vector<std::unique_ptr<trace::Tracer>> owned_tracers(specs.size());
  const auto spec_metrics = [&](std::size_t i) {
    return owned_registries[i] != nullptr ? owned_registries[i].get()
                                          : options_.metrics;
  };
  const auto spec_tracer = [&](std::size_t i) {
    return owned_tracers[i] != nullptr ? owned_tracers[i].get()
                                       : options_.tracer;
  };

  std::vector<SpecResult> results(specs.size());
  std::vector<PreparedSpec> prepared;
  prepared.reserve(specs.size());
  std::vector<std::uint64_t> spec_seeds(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    if (!spec.metrics_out.empty()) {
      owned_registries[i] = std::make_unique<metrics::MetricsRegistry>();
    }
    if (!spec.spans_out.empty()) {
      owned_tracers[i] = std::make_unique<trace::Tracer>();
    }
    prepared.emplace_back(spec, *registry_, spec_metrics(i), spec_tracer(i));
    spec_seeds[i] = spec_seed(spec, options_.base_seed, i);
    results[i].spec = spec;
    results[i].backend_resolved = prepared[i].backend();
    results[i].auto_reason = prepared[i].auto_reason();
    results[i].trials.resize(spec.trials);
  }

  struct Job {
    std::uint32_t spec;
    std::uint32_t trial;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::uint32_t t = 0; t < specs[i].trials; ++t) {
      jobs.push_back({static_cast<std::uint32_t>(i), t});
    }
  }
  const double setup_ms = elapsed_ms(batch_start);
  if (batch_tb != nullptr) batch_tb->end("batch.setup");

  // Distinct tracers attached to this batch (batch-wide + per-spec owned):
  // the run/aggregate phase spans are emitted into each from this thread,
  // so every exported timeline carries the phase regions its trials nest
  // under.
  std::vector<trace::Tracer*> phase_tracers{options_.tracer};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    phase_tracers.push_back(spec_tracer(i));
  }
  std::sort(phase_tracers.begin(), phase_tracers.end());
  phase_tracers.erase(std::unique(phase_tracers.begin(), phase_tracers.end()),
                      phase_tracers.end());
  std::erase(phase_tracers, nullptr);
  const auto phase_begin = [&](const char* name) {
    for (trace::Tracer* tracer : phase_tracers) {
      tracer->thread_buffer()->begin(name);
    }
  };
  const auto phase_end = [&](const char* name) {
    for (trace::Tracer* tracer : phase_tracers) {
      tracer->thread_buffer()->end(name);
    }
  };

  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  // Progress accounting: relaxed atomics bumped once per completed trial;
  // the monitor thread (and the final heartbeat) read them.
  std::atomic<std::uint64_t> trials_done{0};
  std::atomic<std::uint64_t> interactions_done{0};
  std::atomic<std::uint32_t> specs_done{0};
  const auto spec_remaining =
      std::make_unique<std::atomic<std::uint32_t>[]>(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    spec_remaining[i].store(specs[i].trials, std::memory_order_relaxed);
  }

  const auto run_phase_start = std::chrono::steady_clock::now();

  // One (spec, trial) job. Nothing may escape it: on a batch thread an
  // exception would call std::terminate, so the first one is parked in
  // `error` (rethrown on this thread once every batch thread has joined)
  // and the jobs not yet started are skipped.
  const auto run_job = [&](std::size_t index) {
    if (failed.load(std::memory_order_relaxed)) return;
    const Job job = jobs[index];
    trace::Tracer* tracer = spec_tracer(job.spec);
    const std::uint64_t seed = trial_seed(spec_seeds[job.spec], job.trial);
    // Flight-recorder dump on any failed trial when a tracer is attached
    // (gating on the tracer keeps by-design-failing experiments quiet).
    const auto dump = [&](const TrialRecord* rec, std::string reason = {}) {
      if (tracer == nullptr) return;
      trace::FailureContext ctx =
          failure_context(specs[job.spec], prepared[job.spec].backend(),
                          job.trial, seed, rec);
      if (!reason.empty()) ctx.reason = std::move(reason);
      tracer->dump_failure(ctx, stderr);
    };
    const auto fail = [&](std::string reason) {
      dump(nullptr, std::move(reason));
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      failed = true;
    };
    try {
      TrialRecord& rec = results[job.spec].trials[job.trial];
      rec = prepared[job.spec].run_trial(seed);
      metrics::record_ms(spec_metrics(job.spec), "batch.trial", rec.wall_ms);
      if (!rec.outcome.correct || rec.outcome.run.budget_exhausted) {
        dump(&rec);
      }
      trials_done.fetch_add(1, std::memory_order_relaxed);
      interactions_done.fetch_add(rec.outcome.run.interactions,
                                  std::memory_order_relaxed);
      if (spec_remaining[job.spec].fetch_sub(1, std::memory_order_relaxed) ==
          1) {
        specs_done.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      fail(std::string("worker exception: ") + e.what());
    } catch (...) {
      fail("worker exception (unknown)");
    }
  };
  // Each batch thread claims jobs one at a time until none is left; which
  // thread runs which job is racy on purpose, and harmless: every job
  // writes only its own record, and aggregation runs afterwards in order.
  std::atomic<std::size_t> next_job{0};
  const auto drain_jobs = [&]() {
    for (std::size_t index = next_job.fetch_add(1, std::memory_order_relaxed);
         index < jobs.size();
         index = next_job.fetch_add(1, std::memory_order_relaxed)) {
      run_job(index);
    }
  };

  const auto snapshot_progress = [&]() {
    BatchProgress progress;
    progress.trials_done = trials_done.load(std::memory_order_relaxed);
    progress.trials_total = jobs.size();
    progress.specs_done = specs_done.load(std::memory_order_relaxed);
    progress.specs_total = static_cast<std::uint32_t>(specs.size());
    progress.interactions = interactions_done.load(std::memory_order_relaxed);
    progress.elapsed_s = elapsed_ms(run_phase_start) / 1e3;
    return progress;
  };

  // The heartbeat runs on its own thread so a single giant trial cannot
  // starve it; it exits promptly via the condition variable when the batch
  // threads have joined (or a job threw).
  std::mutex heartbeat_mutex;
  std::condition_variable heartbeat_cv;
  bool heartbeat_stop = false;
  std::thread heartbeat;
  if (options_.progress) {
    const auto interval = std::chrono::duration<double>(
        std::max(options_.progress_interval_s, 0.05));
    heartbeat = std::thread([&, interval]() {
      std::unique_lock<std::mutex> lock(heartbeat_mutex);
      while (!heartbeat_cv.wait_for(lock, interval,
                                    [&]() { return heartbeat_stop; })) {
        options_.progress(snapshot_progress());
      }
    });
  }

  phase_begin("batch.run");
  // Width 1 runs inline on the calling thread; wider batches start
  // threads - 1 threads for this batch, and the caller drains alongside.
  std::vector<std::thread> batch_threads;
  batch_threads.reserve(threads - 1);
  for (std::uint32_t t = 1; t < threads; ++t) {
    batch_threads.emplace_back(drain_jobs);
  }
  drain_jobs();
  for (std::thread& thread : batch_threads) thread.join();
  if (heartbeat.joinable()) {
    {
      std::lock_guard<std::mutex> lock(heartbeat_mutex);
      heartbeat_stop = true;
    }
    heartbeat_cv.notify_all();
    heartbeat.join();
  }
  phase_end("batch.run");
  const double run_ms = elapsed_ms(run_phase_start);
  if (error) std::rethrow_exception(error);
  if (options_.progress) options_.progress(snapshot_progress());

  phase_begin("batch.aggregate");
  const auto aggregate_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Snapshot after all trials: a sparse kernel's materialization counters
    // have settled by now.
    results[i].kernel_stats = prepared[i].kernel().stats();
  }
  for (SpecResult& result : results) aggregate(result, options_.keep_trials);
  const double aggregate_ms = elapsed_ms(aggregate_start);
  phase_end("batch.aggregate");

  // Phase breakdown and utilization. busy/available measures how well the
  // (spec, trial) jobs filled the batch threads: low utilization on a long
  // batch means stragglers (one giant spec serializing the tail).
  double busy_ms = 0.0;
  for (const SpecResult& result : results) {
    busy_ms += result.trial_ms.mean * static_cast<double>(
                                          result.trial_ms.count);
  }
  const double utilization =
      run_ms > 0.0 && threads > 0
          ? std::min(1.0, busy_ms / (run_ms * static_cast<double>(threads)))
          : 0.0;
  const auto record_batch = [&](metrics::MetricsRegistry* m) {
    if (m == nullptr) return;
    m->timer("batch.setup").record_ms(setup_ms);
    m->timer("batch.run").record_ms(run_ms);
    m->timer("batch.aggregate").record_ms(aggregate_ms);
    m->timer("batch.wall").record_ms(elapsed_ms(batch_start));
    m->counter("batch.specs").add(specs.size());
    m->counter("batch.trials").add(jobs.size());
    m->gauge("batch.threads").set(static_cast<double>(threads));
    m->gauge("batch.utilization").set(utilization);
  };
  record_batch(options_.metrics);

  // Manifests, kernel stats, per-spec sink files.
  const std::string finished = metrics::utc_timestamp_now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SpecResult& result = results[i];
    result.manifest = base_manifest;
    result.manifest.spec = specs[i].to_string();
    result.manifest.backend = sim::to_string(result.backend_resolved);
    result.manifest.auto_reason = result.auto_reason;
    result.manifest.kernel = kernel::to_string(result.kernel_stats.kind);
    result.manifest.seed = spec_seeds[i];
    result.manifest.trials = specs[i].trials;
    result.manifest.threads = threads;
    result.manifest.utilization = utilization;
    result.manifest.finished_utc = finished;
    result.manifest.wall_ms =
        result.trial_ms.mean * static_cast<double>(result.trial_ms.count);

    metrics::MetricsRegistry* m = spec_metrics(i);
    if (m != nullptr) {
      const kernel::CompileStats& stats = result.kernel_stats;
      m->timer("kernel.build").record_ms(stats.build_ms);
      m->counter("kernel.entries").add(stats.entries);
      m->counter("kernel.bytes").add(stats.bytes);
      m->counter("kernel.sparse_filled").add(stats.sparse_filled);
      m->counter("kernel.sparse_overflow").add(stats.sparse_overflow);
      m->counter("kernel.sparse_hits").add(stats.sparse_hits);
    }
    if (owned_registries[i] != nullptr) {
      record_batch(owned_registries[i].get());
      owned_registries[i]->write(specs[i].metrics_out);
      result.manifest.write(manifest_path(specs[i].metrics_out));
    }
    if (owned_tracers[i] != nullptr) {
      owned_tracers[i]->write_chrome_trace(specs[i].spans_out);
    }
  }
  return results;
}

std::vector<SpecResult> BatchRunner::run(
    std::initializer_list<RunSpec> specs) const {
  return run(std::span<const RunSpec>(specs.begin(), specs.size()));
}

SpecResult BatchRunner::run_one(const RunSpec& spec) const {
  auto results = run(std::span<const RunSpec>(&spec, 1));
  return std::move(results.front());
}

}  // namespace circles::sim
