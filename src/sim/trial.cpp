#include "sim/trial.hpp"

#include <optional>
#include <vector>

#include "core/decomposition.hpp"
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

}  // namespace

TrialOutcome grade_run(const pp::RunResult& run,
                       const analysis::Workload& workload,
                       std::optional<pp::OutputSymbol> expected_symbol) {
  TrialOutcome outcome;
  outcome.run = run;
  grade_against(outcome, workload, expected_symbol);
  return outcome;
}

AgentDraws::AgentDraws(const analysis::Workload& workload, std::uint64_t seed)
    : rng(seed), colors(workload.agent_colors(rng)) {
  CIRCLES_CHECK_MSG(colors.size() >= 2, "trials need at least two agents");
  scheduler_seed = rng.split()();
}

AgentTrial::AgentTrial(const pp::Protocol& protocol,
                       const analysis::Workload& workload,
                       const TrialOptions& options,
                       std::span<pp::Monitor* const> monitors,
                       const kernel::CompiledProtocol* kernel)
    : AgentDraws(workload, options.seed),
      kernel_(kernel),
      monitors_(monitors.begin(), monitors.end()) {
  CIRCLES_CHECK_MSG(workload.k() == protocol.num_colors(),
                    "workload color count does not match the protocol");
  if (kernel_ == nullptr) {
    kernel_ = &owned_kernel_.emplace(protocol,
                                     kernel::CompileOptions::one_shot());
  }
  population = std::make_unique<pp::Population>(protocol, colors);
  const auto n = static_cast<std::uint32_t>(colors.size());
  scheduler_ = options.scheduler_factory
                   ? options.scheduler_factory(n, scheduler_seed)
                   : pp::make_scheduler(options.scheduler, n, scheduler_seed,
                                        &protocol, &options.clustered);
  if (options.recorder != nullptr) {
    monitors_.push_back(&recorder_monitor_.emplace(*options.recorder, kernel_));
  }
}

pp::RunResult AgentTrial::run(const pp::EngineOptions& engine) {
  return pp::Engine(engine).run(*kernel_, *population, *scheduler_, monitors_);
}

TrialOutcome run_trial_keep_population(
    const pp::Protocol& protocol, const analysis::Workload& workload,
    const TrialOptions& options, std::span<pp::Monitor* const> monitors,
    std::optional<pp::OutputSymbol> expected_symbol,
    std::unique_ptr<pp::Population>* final_population,
    std::vector<pp::ColorId>* assigned_colors) {
  AgentTrial trial(protocol, workload, options, monitors);
  TrialOutcome outcome;
  outcome.run = trial.run(options.engine);
  grade_against(outcome, workload, expected_symbol);

  if (final_population != nullptr) {
    *final_population = std::move(trial.population);
  }
  if (assigned_colors != nullptr) *assigned_colors = std::move(trial.colors);
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

CirclesInstruments::CirclesInstruments(const core::CirclesProtocol& protocol)
    : protocol_(protocol),
      view_(protocol),
      exchanges_(view_),
      invariant_(view_),
      potential_(view_),
      monitors_{&exchanges_, &invariant_, &potential_} {}

CirclesStats CirclesInstruments::stats(
    const pp::Population& final_population,
    const analysis::Workload& workload) const {
  CirclesStats stats;
  stats.ket_exchanges = exchanges_.exchanges();
  stats.diagonal_creations = exchanges_.diagonal_creations();
  stats.diagonal_destructions = exchanges_.diagonal_destructions();
  stats.braket_invariant_violations = invariant_.violations();
  stats.potential_descent_violations = potential_.descent_violations();
  stats.scalar_energy_increases = potential_.scalar_energy_increases();
  stats.decomposition_matches =
      core::verify_decomposition(final_population, protocol_, workload.counts)
          .matches;
  return stats;
}

CirclesTrialOutcome run_circles_trial(const core::CirclesProtocol& protocol,
                                      const analysis::Workload& workload,
                                      const TrialOptions& options) {
  CirclesInstruments instruments(protocol);
  std::unique_ptr<pp::Population> population;
  CirclesTrialOutcome outcome;
  outcome.trial =
      run_trial_keep_population(protocol, workload, options,
                                instruments.monitors(), std::nullopt,
                                &population);
  outcome.circles = instruments.stats(*population, workload);
  return outcome;
}

}  // namespace circles::sim
