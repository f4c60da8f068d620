#include "sim/trial.hpp"

#include <array>
#include <optional>
#include <vector>

#include "core/decomposition.hpp"
#include "core/invariants.hpp"
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
    recorder_monitor.emplace(*options.recorder);
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
  outcome.run = engine.run(protocol, *population, *scheduler, monitors);
  grade_against(outcome, workload, expected_symbol);

  if (final_population != nullptr) *final_population = std::move(population);
  if (assigned_colors != nullptr) *assigned_colors = colors;
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
