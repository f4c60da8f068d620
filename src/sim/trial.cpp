#include "sim/trial.hpp"

#include <array>
#include <optional>
#include <vector>

#include <algorithm>

#include "core/decomposition.hpp"
#include "core/invariants.hpp"
#include "dense/dense_config.hpp"
#include "dense/dense_engine.hpp"
#include "dense/urn_config.hpp"
#include "fluid/fluid_engine.hpp"
#include "kernel/compiled_protocol.hpp"
#include "pp/schedulers/clustered.hpp"
#include "obs/monitor_probe.hpp"
#include "util/check.hpp"

namespace circles::sim {

namespace {

std::optional<pp::OutputSymbol> histogram_consensus(
    const std::vector<std::uint64_t>& histogram) {
  std::optional<pp::OutputSymbol> symbol;
  for (pp::OutputSymbol s = 0; s < histogram.size(); ++s) {
    if (histogram[s] == 0) continue;
    if (symbol.has_value()) return std::nullopt;
    symbol = s;
  }
  return symbol;
}

void grade_against(TrialOutcome& outcome, const analysis::Workload& workload,
                   std::optional<pp::OutputSymbol> expected_symbol) {
  outcome.expected_winner = workload.winner();
  outcome.consensus = histogram_consensus(outcome.run.final_outputs);
  const std::optional<pp::OutputSymbol> target =
      expected_symbol.has_value()
          ? expected_symbol
          : (outcome.expected_winner.has_value()
                 ? std::optional<pp::OutputSymbol>(*outcome.expected_winner)
                 : std::nullopt);
  outcome.correct = outcome.run.silent && target.has_value() &&
                    outcome.consensus == target;
}

/// Kernel for a count-level trial that builds its own engine: the caller's
/// prebuilt kernel, shared without ownership (it outlives the trial), or a
/// fresh compile.
std::shared_ptr<const kernel::CompiledProtocol> trial_kernel(
    const pp::Protocol& protocol, const TrialOptions& options) {
  if (options.kernel == nullptr) {
    return std::make_shared<const kernel::CompiledProtocol>(protocol);
  }
  CIRCLES_CHECK_MSG(&options.kernel->protocol() == &protocol,
                    "prebuilt kernel does not match the trial's protocol");
  return {std::shared_ptr<const void>(), options.kernel};
}

}  // namespace

TrialOutcome grade_run(const pp::RunResult& run,
                       const analysis::Workload& workload,
                       std::optional<pp::OutputSymbol> expected_symbol) {
  TrialOutcome outcome;
  outcome.run = run;
  grade_against(outcome, workload, expected_symbol);
  return outcome;
}

TrialOutcome run_trial_keep_population(
    const pp::Protocol& protocol, const analysis::Workload& workload,
    const TrialOptions& options, std::span<pp::Monitor* const> monitors,
    std::optional<pp::OutputSymbol> expected_symbol,
    std::unique_ptr<pp::Population>* final_population,
    std::vector<pp::ColorId>* assigned_colors) {
  CIRCLES_CHECK_MSG(workload.k() == protocol.num_colors(),
                    "workload color count does not match the protocol");
  util::Rng rng(options.seed);
  const auto colors = workload.agent_colors(rng);
  CIRCLES_CHECK_MSG(colors.size() >= 2, "trials need at least two agents");

  auto population = std::make_unique<pp::Population>(protocol, colors);
  const auto n = static_cast<std::uint32_t>(colors.size());
  const std::uint64_t scheduler_seed = rng.split()();
  auto scheduler = options.scheduler_factory
                       ? options.scheduler_factory(n, scheduler_seed)
                       : pp::make_scheduler(options.scheduler, n,
                                            scheduler_seed, &protocol,
                                            &options.clustered);

  // Probe pipeline: the recorder monitor feeds count snapshots, and probes
  // wrapping legacy monitors (Probe::as_monitor) ride the event stream.
  std::optional<obs::RecorderMonitor> recorder_monitor;
  std::vector<pp::Monitor*> all_monitors(monitors.begin(), monitors.end());
  if (options.recorder != nullptr) {
    recorder_monitor.emplace(*options.recorder, options.kernel);
    all_monitors.push_back(&*recorder_monitor);
    for (obs::Probe* probe : options.recorder->probes()) {
      if (pp::Monitor* monitor = probe->as_monitor()) {
        all_monitors.push_back(monitor);
      }
    }
    monitors = std::span<pp::Monitor* const>(all_monitors.data(),
                                             all_monitors.size());
  }

  pp::Engine engine(options.engine);
  TrialOutcome outcome;
  if (options.kernel != nullptr) {
    CIRCLES_CHECK_MSG(&options.kernel->protocol() == &protocol,
                      "prebuilt kernel does not match the trial's protocol");
    outcome.run = engine.run(*options.kernel, *population, *scheduler, monitors);
  } else {
    outcome.run = engine.run(protocol, *population, *scheduler, monitors);
  }
  grade_against(outcome, workload, expected_symbol);

  if (final_population != nullptr) *final_population = std::move(population);
  if (assigned_colors != nullptr) *assigned_colors = colors;
  return outcome;
}

TrialOutcome run_dense_trial(const pp::Protocol& protocol,
                             const analysis::Workload& workload,
                             const TrialOptions& options, bool batched,
                             std::optional<pp::OutputSymbol> expected_symbol,
                             const dense::DenseEngine* engine) {
  CIRCLES_CHECK_MSG(workload.k() == protocol.num_colors(),
                    "workload color count does not match the protocol");
  const bool uniform =
      options.scheduler == pp::SchedulerKind::kUniformRandom;
  CIRCLES_CHECK_MSG(
      (uniform || options.scheduler == pp::SchedulerKind::kClustered) &&
          !options.scheduler_factory,
      "dense trials simulate lumpable schedulers only (uniform, clustered)");
  CIRCLES_CHECK_MSG(workload.n() >= 2, "trials need at least two agents");

  // Mirror run_trial's stream discipline: the engine runs on a seed split
  // off the trial stream (the agent path spends the head of the stream on
  // the color shuffle, which counts have no use for). Clustered trials then
  // spend the continuing trial stream on the urn split — the count-level
  // image of the agent path's color shuffle.
  util::Rng rng(options.seed);
  const std::uint64_t engine_seed = rng.split()();

  const dense::DenseMode mode =
      batched ? dense::DenseMode::kBatched : dense::DenseMode::kPerStep;
  pp::UrnLumping lumping;  // empty = single urn (uniform)
  if (!uniform) {
    lumping = pp::clustered_lumping(workload.n(), options.clustered);
  }
  const std::size_t want_urns = lumping.sizes.empty() ? 1 : lumping.num_urns();
  std::optional<dense::DenseEngine> local;
  if (engine == nullptr) {
    engine = &local.emplace(trial_kernel(protocol, options), options.engine,
                            mode, lumping);
  }
  CIRCLES_CHECK_MSG(
      engine->mode() == mode && &engine->protocol() == &protocol &&
          engine->options().max_interactions ==
              options.engine.max_interactions &&
          engine->options().stop_when_silent ==
              options.engine.stop_when_silent,
      "prebuilt dense engine does not match the trial");
  CIRCLES_CHECK_MSG(std::max<std::size_t>(engine->lumping().num_urns(), 1) ==
                        want_urns,
                    "dense engine's urn structure does not match the "
                    "trial's scheduler");
  CIRCLES_CHECK_MSG(want_urns == 1 ||
                        (engine->lumping().sizes == lumping.sizes &&
                         engine->lumping().rates == lumping.rates),
                    "prebuilt dense engine's urn sizes or rate matrix do "
                    "not match the trial's clustered options");

  TrialOutcome outcome;
  if (engine->lumping().num_urns() > 1) {
    dense::UrnConfig config = dense::UrnConfig::from_workload(
        protocol, workload, engine->lumping().sizes, rng);
    outcome.run = engine->run(config, engine_seed, options.recorder);
  } else {
    dense::DenseConfig config =
        dense::DenseConfig::from_workload(protocol, workload);
    outcome.run = engine->run(config, engine_seed, options.recorder);
  }
  grade_against(outcome, workload, expected_symbol);
  return outcome;
}

TrialOutcome run_fluid_trial(const pp::Protocol& protocol,
                             const analysis::Workload& workload,
                             const TrialOptions& options,
                             std::optional<pp::OutputSymbol> expected_symbol,
                             const fluid::FluidEngine* engine) {
  CIRCLES_CHECK_MSG(workload.k() == protocol.num_colors(),
                    "workload color count does not match the protocol");
  const bool uniform =
      options.scheduler == pp::SchedulerKind::kUniformRandom;
  CIRCLES_CHECK_MSG(
      (uniform || options.scheduler == pp::SchedulerKind::kClustered) &&
          !options.scheduler_factory,
      "fluid trials simulate lumpable schedulers only (uniform, clustered)");
  CIRCLES_CHECK_MSG(workload.n() >= 2, "trials need at least two agents");

  // Same stream discipline as run_dense_trial: engine seed split off the
  // head, urn split on the continuing stream — a fluid trial and a dense
  // trial with equal seeds therefore start from identical configurations.
  util::Rng rng(options.seed);
  const std::uint64_t engine_seed = rng.split()();

  pp::UrnLumping lumping;  // empty = single urn (uniform)
  if (!uniform) {
    lumping = pp::clustered_lumping(workload.n(), options.clustered);
  }
  const std::size_t want_urns = lumping.sizes.empty() ? 1 : lumping.num_urns();
  fluid::FluidOptions fluid_options;
  if (options.rtol > 0.0) fluid_options.rtol = options.rtol;
  if (options.atol > 0.0) fluid_options.atol = options.atol;
  std::optional<fluid::FluidEngine> local;
  if (engine == nullptr) {
    engine = &local.emplace(trial_kernel(protocol, options), options.engine,
                            fluid_options, lumping);
  }
  CIRCLES_CHECK_MSG(
      &engine->protocol() == &protocol &&
          engine->options().max_interactions ==
              options.engine.max_interactions &&
          engine->options().stop_when_silent ==
              options.engine.stop_when_silent,
      "prebuilt fluid engine does not match the trial");
  CIRCLES_CHECK_MSG(
      std::max<std::size_t>(engine->lumping().num_urns(), 1) == want_urns,
      "fluid engine's urn structure does not match the trial's scheduler");
  CIRCLES_CHECK_MSG(want_urns == 1 ||
                        (engine->lumping().sizes == lumping.sizes &&
                         engine->lumping().rates == lumping.rates),
                    "prebuilt fluid engine's urn sizes or rate matrix do "
                    "not match the trial's clustered options");

  TrialOutcome outcome;
  if (engine->lumping().num_urns() > 1) {
    dense::UrnConfig config = dense::UrnConfig::from_workload(
        protocol, workload, engine->lumping().sizes, rng);
    outcome.run = engine->run(config, engine_seed, options.recorder);
  } else {
    dense::DenseConfig config =
        dense::DenseConfig::from_workload(protocol, workload);
    outcome.run = engine->run(config, engine_seed, options.recorder);
  }
  grade_against(outcome, workload, expected_symbol);
  return outcome;
}

TrialOutcome run_trial(const pp::Protocol& protocol,
                       const analysis::Workload& workload,
                       const TrialOptions& options,
                       std::span<pp::Monitor* const> monitors,
                       std::optional<pp::OutputSymbol> expected_symbol) {
  return run_trial_keep_population(protocol, workload, options, monitors,
                                   expected_symbol, nullptr);
}

CirclesTrialOutcome run_circles_trial(const core::CirclesProtocol& protocol,
                                      const analysis::Workload& workload,
                                      const TrialOptions& options) {
  core::CirclesBraKetView view(protocol);
  core::KetExchangeCounter exchanges(view);
  core::BraKetInvariantMonitor invariant(view);
  core::PotentialDescentMonitor potential(view);
  std::array<pp::Monitor*, 3> monitors{&exchanges, &invariant, &potential};

  std::unique_ptr<pp::Population> population;
  CirclesTrialOutcome outcome;
  outcome.trial = run_trial_keep_population(
      protocol, workload, options,
      std::span<pp::Monitor* const>(monitors.data(), monitors.size()),
      std::nullopt, &population);

  outcome.ket_exchanges = exchanges.exchanges();
  outcome.diagonal_creations = exchanges.diagonal_creations();
  outcome.diagonal_destructions = exchanges.diagonal_destructions();
  outcome.braket_invariant_violations = invariant.violations();
  outcome.potential_descent_violations = potential.descent_violations();
  outcome.scalar_energy_increases = potential.scalar_energy_increases();
  outcome.decomposition_matches =
      core::verify_decomposition(*population, protocol, workload.counts)
          .matches;
  return outcome;
}

}  // namespace circles::sim
