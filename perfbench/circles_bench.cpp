// End-to-end benchmark of the circles simulator.
//
//   circles_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE.json]
//
// Untraced mode (--trace 0) runs the workload's RunSpec grid through
// sim::BatchRunner::run — the path `sweep` and SessionBuilder take — round
// after round for S seconds, each round with a fresh base seed derived from
// --seed, one outer thread and inner width 1 (the `threads=1` token). It
// reports the end-to-end metrics and checks every trial's verdict against an
// independent recomputation from the trial's workload counts.
//
// Traced mode (--trace 1) spends half of S on untraced rounds, then replays
// every one of their trials layer by layer: it calls the library's public
// functions in BatchRunner::execute_trial's order with the same seeds, times
// each call, records a trace::Tracer span around it (exported as Chrome-trace
// JSON with --trace-out) and reads the engines' work counters from an
// attached metrics::MetricsRegistry. The replay must reproduce every trial
// exactly (interactions, state changes, verdict), and the layer times must
// cover the replayed wall clock to within 5%.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": trials, "failed": trials, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/dense_engine.hpp"
#include "dense/urn_config.hpp"
#include "fluid/fluid_engine.hpp"
#include "kernel/compiled_protocol.hpp"
#include "metrics/manifest.hpp"
#include "metrics/metrics.hpp"
#include "pp/engine.hpp"
#include "pp/population.hpp"
#include "pp/scheduler.hpp"
#include "sim/batch_runner.hpp"
#include "sim/registry.hpp"
#include "sim/run_spec.hpp"
#include "sim/trial.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace circles;
using Clock = std::chrono::steady_clock;

/// Salt BatchRunner::execute_trial mixes into a trial seed to derive the
/// workload-materialization stream. The replay must use the same value; the
/// replay-identity check fails loudly if the library ever changes it.
constexpr std::uint64_t kWorkloadSalt = 0x574f524b4c4f4144ULL;

/// Largest share of a replayed wall clock the named layers may leave
/// unattributed.
constexpr double kCoverageTolerance = 0.05;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::span<const double> values) {
  return util::summarize(values).p50;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- workloads ---------------------------------------------------------------

/// Every spec pins inner width 1 (`threads=1`): the auto inner budget made
/// identical runs of one clustered trial swing by more than 1.5x. The grid
/// shapes are chosen for steadiness; perfbench/README.md gives the reasons.
struct WorkloadDef {
  const char* name;
  std::vector<const char*> specs;
};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"sweep_auto",
       {
           "circles(k=3) n=1000 workload=unique trials=1 backend=auto "
           "threads=1",
           "circles(k=3) n=2000 workload=unique trials=1 backend=auto "
           "threads=1",
           "circles(k=5) n=1000 workload=unique trials=1 backend=auto "
           "threads=1",
           "circles(k=5) n=2000 workload=unique trials=1 backend=auto "
           "threads=1",
           "circles(k=3) n=30000 workload=margin1 trials=3 backend=auto "
           "threads=1 budget=50000000000",
           "circles(k=5) n=30000 workload=margin1 trials=3 backend=auto "
           "threads=1 budget=50000000000",
           "circles(k=12) n=1000 workload=unique trials=1 backend=auto "
           "threads=1",
       }},
      {"urn_clustered",
       {
           "circles(k=5) n=200000 workload=zipf:1.2 scheduler=clustered "
           "clusters=8 trials=1 backend=dense_batched threads=1",
       }},
      {"fluid_zipf",
       {
           "circles(k=8) n=10000000 workload=zipf:1.2 trials=1 "
           "backend=fluid threads=1 budget=50000000000",
       }},
  };
  return defs;
}

std::vector<sim::RunSpec> workload_specs(const std::string& name) {
  std::string known;
  for (const WorkloadDef& def : workloads()) {
    if (name == def.name) {
      std::vector<sim::RunSpec> specs;
      for (const char* text : def.specs) {
        specs.push_back(sim::RunSpec::parse(text));
      }
      return specs;
    }
    known += std::string(known.empty() ? "" : ", ") + def.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

// --- command line --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

// --- untraced rounds -----------------------------------------------------------

/// One BatchRunner::run call over the workload's specs.
struct Round {
  std::uint64_t base_seed = 0;
  std::vector<sim::SpecResult> results;
  double setup_ms = 0.0;  // run() entry until the first trial starts
  double run_ms = 0.0;    // the trial phase
};

Round run_round(const std::vector<sim::RunSpec>& specs,
                std::uint64_t base_seed) {
  // The registry only feeds the batch phase timers read below; tracing is
  // off. Engines flush their counters into it once per run.
  metrics::MetricsRegistry registry;
  sim::BatchOptions options;
  options.threads = 1;
  options.base_seed = base_seed;
  options.metrics = &registry;
  const sim::BatchRunner runner(options);

  Round round;
  round.base_seed = base_seed;
  round.results = runner.run(specs);
  round.setup_ms = registry.timer("batch.setup").total_ms();
  round.run_ms = registry.timer("batch.run").total_ms();
  return round;
}

/// The verdict recomputed from the trial's own workload counts: silent, and
/// every agent outputs the unique plurality color (the counts' argmax).
bool silent_on_plurality(const sim::TrialRecord& rec) {
  const std::vector<std::uint64_t>& counts = rec.workload.counts;
  const auto top = std::max_element(counts.begin(), counts.end());
  if (top == counts.end() ||
      std::count(counts.begin(), counts.end(), *top) != 1) {
    return false;
  }
  const auto winner = static_cast<std::size_t>(top - counts.begin());
  const pp::RunResult& run = rec.outcome.run;
  std::uint64_t announced = 0;
  for (const std::uint64_t c : run.final_outputs) announced += c;
  return run.silent && !run.budget_exhausted &&
         winner < run.final_outputs.size() &&
         announced == rec.workload.n() &&
         run.final_outputs[winner] == announced;
}

struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       // not silent on the plurality color
  std::uint64_t wrong = 0;        // silent consensus on another color
  std::uint64_t mismatched = 0;   // library verdict != recomputed verdict
};

Verdicts check_verdicts(const std::vector<Round>& rounds) {
  Verdicts v;
  for (const Round& round : rounds) {
    for (const sim::SpecResult& result : round.results) {
      for (const sim::TrialRecord& rec : result.trials) {
        const bool ok = silent_on_plurality(rec);
        ++v.attempted;
        if (!ok) ++v.failed;
        if (ok != rec.outcome.correct) ++v.mismatched;
        if (!ok && rec.outcome.run.silent && rec.outcome.consensus.has_value()) {
          ++v.wrong;
        }
      }
    }
  }
  return v;
}

// --- traced replay -------------------------------------------------------------

/// One call site per layer: a span in the trace and a timer total, fed from
/// the same region. The clock starts after the span opens and stops before
/// it closes, so span emission is never billed to the layer.
class Layer {
 public:
  Layer(trace::TraceBuffer* tb, const char* name, double& total_ms)
      : span_(tb, name), total_ms_(total_ms), start_(Clock::now()) {}
  ~Layer() { total_ms_ += ms_since(start_); }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

 private:
  trace::ScopedSpan span_;
  double& total_ms_;
  Clock::time_point start_;
};

/// Everything the replay accumulates across rounds.
struct Replay {
  std::map<std::string, double> trial_ms;  // per trial layer, summed
  std::map<std::string, double> setup_ms;  // per setup layer, summed
  double aggregate_ms = 0.0;
  std::map<std::string, double> per_setup; // kernel/drift sizes, auto picks

  std::uint64_t trials = 0;
  std::uint64_t rounds = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t agents_sampled = 0;
  std::uint64_t batched_state_changes = 0;

  double trial_wall_ms = 0.0;      // replayed trials, traced
  double untraced_wall_ms = 0.0;   // the same trials, untraced
  /// Smallest share of any replayed trial's wall clock that its layers
  /// account for.
  double worst_trial_coverage = 1.0;
  std::vector<double> setup_layer_ms;  // per round
  std::vector<double> setup_wall_ms;   // per round
};

/// The engine layer's span/timer name per resolved backend.
const char* run_layer(sim::EngineKind kind) {
  switch (kind) {
    case sim::EngineKind::kAgentArray: return "pp.run";
    case sim::EngineKind::kDense: return "dense.run";
    case sim::EngineKind::kDenseBatched: return "dense_batched.run";
    case sim::EngineKind::kFluid: return "fluid.run";
    case sim::EngineKind::kAuto: break;
  }
  throw std::logic_error("auto is not a resolved backend");
}

/// What BatchRunner::run builds once per spec before its trials start.
struct PreparedSpec {
  std::unique_ptr<pp::Protocol> protocol;
  std::shared_ptr<const kernel::CompiledProtocol> kernel;
  std::unique_ptr<dense::DenseEngine> dense;
  std::unique_ptr<fluid::FluidEngine> fluid;
  pp::EngineOptions engine_options;
  sim::EngineKind backend = sim::EngineKind::kAgentArray;
};

PreparedSpec prepare(const sim::RunSpec& spec, sim::EngineKind backend,
                     metrics::MetricsRegistry& registry,
                     trace::TraceBuffer* tb,
                     std::map<std::string, double>& setup_ms) {
  PreparedSpec prepared;
  prepared.backend = backend;
  {
    Layer layer(tb, "sim.protocol", setup_ms["sim.protocol_ms"]);
    prepared.protocol =
        sim::ProtocolRegistry::global().create(spec.protocol, spec.params);
  }
  std::optional<pp::UrnLumping> lumping;
  {
    Layer layer(tb, "sim.validate", setup_ms["sim.validate_ms"]);
    lumping = sim::scheduler_lumping(spec, prepared.protocol.get());
  }
  prepared.engine_options = spec.engine;
  prepared.engine_options.metrics = &registry;
  prepared.engine_options.run_threads = spec.run_threads;
  {
    Layer layer(tb, "kernel.compile", setup_ms["kernel.compile_ms"]);
    kernel::CompileOptions options;
    options.count_sparse_hits = true;  // as BatchRunner does with metrics on
    prepared.kernel = std::make_shared<const kernel::CompiledProtocol>(
        *prepared.protocol, options);
  }
  if (backend == sim::EngineKind::kFluid) {
    Layer layer(tb, "fluid.build", setup_ms["fluid.build_ms"]);
    fluid::FluidOptions fluid_options;
    if (spec.rtol > 0.0) fluid_options.rtol = spec.rtol;
    if (spec.atol > 0.0) fluid_options.atol = spec.atol;
    prepared.fluid = std::make_unique<fluid::FluidEngine>(
        prepared.kernel, prepared.engine_options, fluid_options, *lumping);
  } else if (backend != sim::EngineKind::kAgentArray) {
    Layer layer(tb, "dense.build", setup_ms["dense.build_ms"]);
    prepared.dense = std::make_unique<dense::DenseEngine>(
        prepared.kernel, prepared.engine_options,
        backend == sim::EngineKind::kDenseBatched ? dense::DenseMode::kBatched
                                                  : dense::DenseMode::kPerStep,
        *lumping);
  }
  return prepared;
}

/// Sizes of what prepare() built, and which backend `auto` picked.
void record_setup_sizes(const sim::RunSpec& spec, const PreparedSpec& prepared,
                        Replay& replay) {
  const kernel::CompileStats stats = prepared.kernel->stats();
  replay.per_setup["kernel.bytes"] += static_cast<double>(stats.bytes);
  replay.per_setup["kernel.nonnull_pairs"] +=
      static_cast<double>(stats.nonnull_pairs);
  if (spec.backend == sim::EngineKind::kAuto) {
    replay.per_setup["sim.auto_specs." + sim::to_string(prepared.backend)] +=
        1.0;
  }
  if (prepared.fluid != nullptr) {
    replay.per_setup["fluid.drift_terms"] +=
        static_cast<double>(prepared.fluid->drift().terms().size());
  }
}

/// Replays one trial in execute_trial's call order; returns its outcome.
sim::TrialOutcome replay_trial(const PreparedSpec& prepared,
                               const sim::RunSpec& spec, std::uint64_t seed,
                               trace::TraceBuffer* tb, Replay& replay,
                               analysis::Workload& workload) {
  const pp::Protocol& protocol = *prepared.protocol;
  {
    Layer layer(tb, "analysis.workload", replay.trial_ms["analysis.workload_ms"]);
    util::Rng workload_rng(sim::mix_seed(seed, kWorkloadSalt));
    workload =
        spec.workload.materialize(workload_rng, spec.n, protocol.num_colors());
  }
  replay.agents_sampled += workload.n();

  const char* run_name = run_layer(prepared.backend);
  double& run_ms = replay.trial_ms[std::string(run_name) + "_ms"];
  pp::RunResult run;
  util::Rng rng(seed);
  if (prepared.backend == sim::EngineKind::kAgentArray) {
    std::optional<pp::Population> population;
    std::unique_ptr<pp::Scheduler> scheduler;
    {
      Layer layer(tb, "pp.population", replay.trial_ms["pp.population_ms"]);
      const std::vector<pp::ColorId> colors = workload.agent_colors(rng);
      const std::uint64_t scheduler_seed = rng.split()();
      population.emplace(protocol, colors);
      const pp::ClusteredOptions clustered = spec.clustered_options();
      scheduler = pp::make_scheduler(
          spec.scheduler, static_cast<std::uint32_t>(colors.size()),
          scheduler_seed, &protocol, &clustered);
    }
    Layer layer(tb, run_name, run_ms);
    run = pp::Engine(prepared.engine_options)
              .run(*prepared.kernel, *population, *scheduler);
  } else {
    const std::uint64_t engine_seed = rng.split()();
    const pp::UrnLumping& lumping = prepared.dense != nullptr
                                        ? prepared.dense->lumping()
                                        : prepared.fluid->lumping();
    double& config_ms = replay.trial_ms["dense.config_ms"];
    if (lumping.num_urns() > 1) {
      std::optional<dense::UrnConfig> config;
      {
        Layer layer(tb, "dense.config", config_ms);
        config = dense::UrnConfig::from_workload(protocol, workload,
                                                 lumping.sizes, rng);
      }
      Layer layer(tb, run_name, run_ms);
      run = prepared.dense != nullptr
                ? prepared.dense->run(*config, engine_seed)
                : prepared.fluid->run(*config, engine_seed);
    } else {
      std::optional<dense::DenseConfig> config;
      {
        Layer layer(tb, "dense.config", config_ms);
        config = dense::DenseConfig::from_workload(protocol, workload);
      }
      Layer layer(tb, run_name, run_ms);
      run = prepared.dense != nullptr
                ? prepared.dense->run(*config, engine_seed)
                : prepared.fluid->run(*config, engine_seed);
    }
  }
  Layer layer(tb, "sim.grade", replay.trial_ms["sim.grade_ms"]);
  return sim::grade_run(run, workload);
}

bool same_trial(const sim::TrialRecord& rec, const analysis::Workload& workload,
                const sim::TrialOutcome& outcome) {
  return rec.workload.counts == workload.counts &&
         rec.outcome.run.interactions == outcome.run.interactions &&
         rec.outcome.run.state_changes == outcome.run.state_changes &&
         rec.outcome.run.silent == outcome.run.silent &&
         rec.outcome.run.budget_exhausted == outcome.run.budget_exhausted &&
         rec.outcome.run.final_outputs == outcome.run.final_outputs &&
         rec.outcome.correct == outcome.correct;
}

void replay_round(const Round& round, const std::vector<sim::RunSpec>& specs,
                  metrics::MetricsRegistry& registry, trace::Tracer& tracer,
                  Replay& replay) {
  trace::TraceBuffer* tb = tracer.thread_buffer();
  const trace::ScopedSpan round_span(tb, "round", "base_seed", round.base_seed);

  // Setup, in BatchRunner::run's order.
  const double setup_layers_before = [&] {
    double sum = 0.0;
    for (const auto& [name, ms] : replay.setup_ms) sum += ms;
    return sum;
  }();
  const Clock::time_point setup_start = Clock::now();
  std::vector<PreparedSpec> prepared;
  prepared.reserve(specs.size());
  {
    const trace::ScopedSpan setup_span(tb, "setup");
    {
      Layer layer(tb, "sim.manifest", replay.setup_ms["sim.manifest_ms"]);
      (void)metrics::RunManifest::collect();
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      prepared.push_back(prepare(specs[i], round.results[i].backend_resolved,
                                 registry, tb, replay.setup_ms));
    }
  }
  const double setup_wall = ms_since(setup_start);
  double setup_layers = -setup_layers_before;
  for (const auto& [name, ms] : replay.setup_ms) setup_layers += ms;
  replay.setup_layer_ms.push_back(setup_layers);
  replay.setup_wall_ms.push_back(setup_wall);
  std::printf("replay round %llu: setup %.3f ms, layers %.3f ms\n",
              static_cast<unsigned long long>(replay.rounds), setup_wall,
              setup_layers);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    record_setup_sizes(specs[i], prepared[i], replay);
  }

  // Trials, in job order (one outer thread runs them sequentially).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::uint64_t spec_seed =
        sim::spec_seed(specs[i], round.base_seed, i);
    const sim::SpecResult& result = round.results[i];
    for (std::uint32_t t = 0; t < specs[i].trials; ++t) {
      const sim::TrialRecord& rec = result.trials[t];
      const std::uint64_t seed = sim::trial_seed(spec_seed, t);
      double layers_before = 0.0;
      for (const auto& [name, ms] : replay.trial_ms) layers_before += ms;

      const Clock::time_point trial_start = Clock::now();
      analysis::Workload workload;
      sim::TrialOutcome outcome;
      {
        const trace::ScopedSpan trial_span(tb, "trial", "index", t);
        outcome = replay_trial(prepared[i], specs[i], seed, tb, replay,
                               workload);
      }
      const double wall = ms_since(trial_start);

      double layers = -layers_before;
      for (const auto& [name, ms] : replay.trial_ms) layers += ms;
      replay.trial_wall_ms += wall;
      replay.untraced_wall_ms += rec.wall_ms;
      replay.worst_trial_coverage =
          std::min(replay.worst_trial_coverage, ratio(layers, wall));
      ++replay.trials;
      if (prepared[i].backend == sim::EngineKind::kDenseBatched) {
        replay.batched_state_changes += outcome.run.state_changes;
      }
      if (rec.seed != seed || !same_trial(rec, workload, outcome)) {
        ++replay.mismatches;
        std::fprintf(stderr,
                     "replay mismatch: spec '%s' trial %u seed %llu: "
                     "untraced interactions=%llu state_changes=%llu, "
                     "replayed interactions=%llu state_changes=%llu\n",
                     specs[i].to_string().c_str(), t,
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(
                         rec.outcome.run.interactions),
                     static_cast<unsigned long long>(
                         rec.outcome.run.state_changes),
                     static_cast<unsigned long long>(outcome.run.interactions),
                     static_cast<unsigned long long>(
                         outcome.run.state_changes));
      }
    }
  }

  // Aggregation: the per-spec summaries BatchRunner::run computes.
  {
    Layer layer(tb, "sim.aggregate", replay.aggregate_ms);
    for (const sim::SpecResult& result : round.results) {
      std::vector<double> interactions, changes, wall;
      for (const sim::TrialRecord& rec : result.trials) {
        interactions.push_back(
            static_cast<double>(rec.outcome.run.interactions));
        changes.push_back(static_cast<double>(rec.outcome.run.state_changes));
        wall.push_back(rec.wall_ms);
      }
      (void)util::summarize(interactions);
      (void)util::summarize(changes);
      (void)util::summarize(wall);
    }
  }
  ++replay.rounds;
}

// --- reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::uint64_t counter(const metrics::MetricsRegistry& registry,
                      const std::string& name) {
  for (const metrics::MetricsRegistry::Sample& s : registry.snapshot()) {
    if (s.name == name && s.kind == "counter") return s.count;
  }
  return 0;
}

std::vector<Metric> per_layer_metrics(const Replay& replay,
                                      const metrics::MetricsRegistry& registry) {
  const double trials = static_cast<double>(replay.trials);
  const double rounds = static_cast<double>(replay.rounds);
  const auto total = [](const std::map<std::string, double>& table,
                        const std::string& name) {
    const auto it = table.find(name);
    return it == table.end() ? 0.0 : it->second;
  };
  const auto per_trial = [&](const std::string& name) {
    return ratio(total(replay.trial_ms, name), trials);
  };
  const auto per_round = [&](const std::map<std::string, double>& table,
                             const std::string& name) {
    return ratio(total(table, name), rounds);
  };
  const auto count = [&](const std::string& name) {
    return static_cast<double>(counter(registry, name));
  };

  const double interactions = count("dense.interactions");
  const double accepted = count("fluid.ode_steps_accepted");
  const double rejected = count("fluid.ode_steps_rejected");
  const double batched_run_ms = total(replay.trial_ms, "dense_batched.run_ms");
  const double fluid_run_ms = total(replay.trial_ms, "fluid.run_ms");

  std::vector<Metric> m = {
      {"sim.protocol_ms", per_round(replay.setup_ms, "sim.protocol_ms"),
       "ms/setup"},
      {"sim.validate_ms", per_round(replay.setup_ms, "sim.validate_ms"),
       "ms/setup"},
      {"sim.manifest_ms", per_round(replay.setup_ms, "sim.manifest_ms"),
       "ms/setup"},
      {"sim.grade_ms", per_trial("sim.grade_ms"), "ms/trial"},
      {"sim.aggregate_ms", ratio(replay.aggregate_ms, rounds), "ms/round"},
      {"kernel.compile_ms", per_round(replay.setup_ms, "kernel.compile_ms"),
       "ms/setup"},
      {"kernel.bytes", per_round(replay.per_setup, "kernel.bytes"),
       "B/setup"},
      {"kernel.nonnull_pairs",
       per_round(replay.per_setup, "kernel.nonnull_pairs"), "count/setup"},
      {"analysis.workload_ms", per_trial("analysis.workload_ms"), "ms/trial"},
      {"analysis.agents_sampled",
       ratio(static_cast<double>(replay.agents_sampled), trials),
       "count/trial"},
      {"dense.build_ms", per_round(replay.setup_ms, "dense.build_ms"),
       "ms/setup"},
      {"dense.config_ms", per_trial("dense.config_ms"), "ms/trial"},
      {"dense.run_ms", per_trial("dense.run_ms"), "ms/trial"},
      {"dense_batched.run_ms", per_trial("dense_batched.run_ms"), "ms/trial"},
      {"dense.interactions", ratio(interactions, trials), "count/trial"},
      {"dense.state_changes", ratio(count("dense.state_changes"), trials),
       "count/trial"},
      {"dense.epochs", ratio(count("dense.epochs"), trials), "count/trial"},
      {"dense.mvhg_draws", ratio(count("dense.mvhg_draws"), trials),
       "count/trial"},
      {"dense.fast_forward_jumps",
       ratio(count("dense.fast_forward_jumps"), trials), "count/trial"},
      {"dense.fast_forward_interactions",
       ratio(count("dense.fast_forward_interactions"), trials), "count/trial"},
      {"dense.change_ratio", ratio(count("dense.state_changes"), interactions),
       "ratio"},
      {"dense.ff_share",
       ratio(count("dense.fast_forward_interactions"), interactions), "ratio"},
      {"dense_batched.ns_per_change",
       ratio(batched_run_ms * 1e6,
             static_cast<double>(replay.batched_state_changes)),
       "ns"},
      {"fluid.build_ms", per_round(replay.setup_ms, "fluid.build_ms"),
       "ms/setup"},
      {"fluid.drift_terms", per_round(replay.per_setup, "fluid.drift_terms"),
       "count/setup"},
      {"fluid.run_ms", per_trial("fluid.run_ms"), "ms/trial"},
      {"fluid.ode_steps_accepted", ratio(accepted, trials), "count/trial"},
      {"fluid.ode_steps_rejected", ratio(rejected, trials), "count/trial"},
      {"fluid.accept_ratio", ratio(accepted, accepted + rejected), "ratio"},
      {"fluid.us_per_step", ratio(fluid_run_ms * 1e3, accepted + rejected),
       "us"},
      {"pp.population_ms", per_trial("pp.population_ms"), "ms/trial"},
      {"pp.run_ms", per_trial("pp.run_ms"), "ms/trial"},
      {"pp.interactions", ratio(count("engine.interactions"), trials),
       "count/trial"},
      {"pp.silence_checks", ratio(count("engine.silence_checks"), trials),
       "count/trial"},
  };
  for (const char* backend : {"agent", "dense", "dense_batched", "fluid"}) {
    m.push_back({std::string("sim.auto_specs.") + backend,
                 per_round(replay.per_setup,
                           std::string("sim.auto_specs.") + backend),
                 "count/setup"});
  }
  return m;
}

void print_report(bool correct, const Verdicts& verdicts,
                  const std::vector<Metric>& metrics_out) {
  for (const Metric& m : metrics_out) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdicts.attempted);
  json += ", \"failed\": " + std::to_string(verdicts.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_out.size(); ++i) {
    const Metric& m = metrics_out[i];
    if (i != 0) json += ", ";
    json += "\"";
    json += metrics::json_escape(m.name);
    json += "\": {\"value\": ";
    json += metrics::json_number(m.value);
    json += ", \"unit\": \"";
    json += metrics::json_escape(m.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args) {
  const metrics::RunManifest manifest = metrics::RunManifest::collect();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("provenance: nproc=%u git=%s build=%s compiler=%s host=%s\n",
              nproc, manifest.git_describe.c_str(),
              manifest.build_type.c_str(), manifest.compiler.c_str(),
              manifest.hostname.c_str());
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "refusing to report: benchmark built without "
                       "optimization\n");
  return 3;
#endif
  if (manifest.build_type != "Release" &&
      manifest.build_type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "refusing to report: library build type '%s' is not "
                 "optimized (want Release or RelWithDebInfo)\n",
                 manifest.build_type.c_str());
    return 3;
  }

  const std::vector<sim::RunSpec> specs = workload_specs(args.workload);
  for (const sim::RunSpec& spec : specs) {
    std::printf("spec: %s\n", spec.to_string().c_str());
  }

  // Untraced rounds. Traced mode spends half the budget here and the rest
  // on the replay, which costs about as much again.
  const double budget_ms = args.seconds * 1e3 * (args.trace ? 0.5 : 1.0);
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(run_round(
        specs, sim::mix_seed(args.seed, static_cast<std::uint64_t>(
                                            rounds.size()))));
    const Round& round = rounds.back();
    std::printf("round %zu: setup %.3f ms, trials", rounds.size() - 1,
                round.setup_ms);
    for (const sim::SpecResult& result : round.results) {
      for (const sim::TrialRecord& rec : result.trials) {
        std::printf(" %.1f", rec.wall_ms);
      }
    }
    std::printf(" ms\n");
  } while (ms_since(start) < budget_ms);

  const Verdicts verdicts = check_verdicts(rounds);
  bool correct = verdicts.mismatched == 0 && verdicts.wrong == 0;
  if (verdicts.mismatched != 0) {
    std::fprintf(stderr, "%llu trial verdicts disagree with the plurality "
                         "argmax of their workload counts\n",
                 static_cast<unsigned long long>(verdicts.mismatched));
  }
  if (verdicts.wrong != 0) {
    std::fprintf(stderr, "%llu trials fell silent on a wrong color\n",
                 static_cast<unsigned long long>(verdicts.wrong));
  }

  std::vector<double> setup_ms, trial_ms;
  double run_ms = 0.0;
  for (const Round& round : rounds) {
    setup_ms.push_back(round.setup_ms);
    run_ms += round.run_ms;
    for (const sim::SpecResult& result : round.results) {
      for (const sim::TrialRecord& rec : result.trials) {
        trial_ms.push_back(rec.wall_ms);
      }
    }
  }
  const util::Summary trial_summary = util::summarize(trial_ms);
  std::printf("rounds: %zu, trials: %llu, failed: %llu, trial_ms p50 %.3f "
              "p90 %.3f over %llu samples\n",
              rounds.size(),
              static_cast<unsigned long long>(verdicts.attempted),
              static_cast<unsigned long long>(verdicts.failed),
              trial_summary.p50, trial_summary.p90,
              static_cast<unsigned long long>(trial_summary.count));

  if (!args.trace) {
    const std::vector<Metric> e2e = {
        {"setup_s", median(setup_ms) / 1e3, "s"},
        {"trials_per_s", ratio(static_cast<double>(trial_ms.size()),
                               run_ms / 1e3),
         "1/s"},
        {"trial_ms_p50", trial_summary.p50, "ms"},
        {"pass_frac",
         1.0 - ratio(static_cast<double>(verdicts.failed),
                     static_cast<double>(verdicts.attempted)),
         "share"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    print_report(correct, verdicts, e2e);
    return 0;
  }

  metrics::MetricsRegistry registry;
  trace::Tracer tracer;
  Replay replay;
  for (const Round& round : rounds) {
    replay_round(round, specs, registry, tracer, replay);
  }
  if (!args.trace_out.empty()) tracer.write_chrome_trace(args.trace_out);

  // Setup layers against the untraced setup_s: two separate executions, so
  // this ratio carries the run-to-run noise of both and only warns.
  const double setup_ratio =
      ratio(median(replay.setup_layer_ms), median(setup_ms));
  // Layer coverage: the worst replayed trial, and the median replayed setup
  // (a setup is sub-millisecond on some workloads, so one preemption in the
  // glue between two layers must not decide it).
  const double coverage =
      std::min(replay.worst_trial_coverage,
               ratio(median(replay.setup_layer_ms),
                     median(replay.setup_wall_ms)));
  std::printf("replay: %llu trials, %llu mismatches, layer coverage %.4f, "
              "setup layers / setup_s %.4f\n",
              static_cast<unsigned long long>(replay.trials),
              static_cast<unsigned long long>(replay.mismatches), coverage,
              setup_ratio);
  if (replay.mismatches != 0) correct = false;
  if (coverage < 1.0 - kCoverageTolerance) {
    std::fprintf(stderr, "layer times cover only %.4f of a replayed wall\n",
                 coverage);
    correct = false;
  }
  if (std::abs(setup_ratio - 1.0) > kCoverageTolerance) {
    std::fprintf(stderr, "warning: setup layers sum to %.4f of setup_s\n",
                 setup_ratio);
  }

  std::vector<Metric> layers = per_layer_metrics(replay, registry);
  layers.push_back({"trace.overhead_frac",
                    ratio(replay.trial_wall_ms, replay.untraced_wall_ms) - 1.0,
                    "ratio"});
  layers.push_back({"trace.layer_coverage", coverage, "ratio"});
  layers.push_back({"trace.setup_vs_setup_s", setup_ratio, "ratio"});
  print_report(correct, verdicts, layers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "circles_bench: %s\n", e.what());
    return 2;
  }
}
