#include "crn/gillespie.hpp"

#include <cmath>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "kernel/compiled_protocol.hpp"
#include "metrics/metrics.hpp"
#include "obs/monitor_probe.hpp"
#include "pp/scheduler.hpp"
#include "util/check.hpp"

namespace circles::crn {

ExponentialClockMonitor::ExponentialClockMonitor(
    std::uint64_t seed, const kernel::CompiledProtocol& kernel)
    : rng_(seed), kernel_(&kernel) {}

void ExponentialClockMonitor::on_start(const pp::Population& population,
                                       const pp::Protocol&) {
  rate_ = static_cast<double>(population.size()) - 1.0;
  CIRCLES_CHECK_MSG(rate_ > 0.0, "chemical kinetics need at least 2 agents");
  now_ = 0.0;
  last_change_time_ = 0.0;
  last_output_change_time_ = 0.0;
}

void ExponentialClockMonitor::on_interaction(const pp::InteractionEvent& event,
                                             const pp::Population&) {
  // Inverse-CDF exponential sample; uniform01() < 1 so the log is finite.
  now_ += -std::log1p(-rng_.uniform01()) / rate_;
  if (!event.changed()) return;
  last_change_time_ = now_;
  if (kernel_->output_changes(event.initiator_before, event.responder_before)) {
    last_output_change_time_ = now_;
  }
}

GillespieResult run_gillespie(const kernel::CompiledProtocol& kernel,
                              std::span<const pp::ColorId> colors,
                              std::uint64_t seed,
                              pp::EngineOptions options,
                              obs::Recorder* recorder) {
  const pp::Protocol& protocol = kernel.protocol();
  util::Rng rng(seed);
  pp::Population population(protocol, colors);
  auto scheduler = pp::make_scheduler(
      pp::SchedulerKind::kUniformRandom,
      static_cast<std::uint32_t>(colors.size()), rng(), &protocol);
  ExponentialClockMonitor clock(rng(), kernel);
  // The clock monitor runs first so the recorder's snapshots read the
  // already-advanced chemical time of the interaction they describe.
  std::optional<obs::RecorderMonitor> recorder_monitor;
  std::vector<pp::Monitor*> monitors{&clock};
  if (recorder != nullptr) {
    recorder_monitor.emplace(*recorder, &kernel,
                             [&clock]() { return clock.now(); });
    monitors.push_back(&*recorder_monitor);
  }
  const std::span<pp::Monitor* const> monitor_span(monitors.data(),
                                                   monitors.size());

  pp::Engine engine(options);
  GillespieResult result;
  result.run = engine.run(kernel, population, *scheduler, monitor_span);
  result.stabilization_time = clock.last_change_time();
  result.convergence_time = clock.last_output_change_time();
  result.parallel_time = static_cast<double>(result.run.interactions) /
                         static_cast<double>(colors.size());

  // The engine flushed its own counters already (engine.interactions,
  // engine.monitor, ...); tag the run as chemical-time so dashboards can
  // tell the two apart.
  if (options.metrics != nullptr) {
    options.metrics->counter("crn.runs").add(1);
  }
  return result;
}

GillespieResult run_gillespie(const pp::Protocol& protocol,
                              std::span<const pp::ColorId> colors,
                              std::uint64_t seed,
                              pp::EngineOptions options,
                              obs::Recorder* recorder) {
  const kernel::CompiledProtocol kernel(protocol,
                                        kernel::CompileOptions::one_shot());
  return run_gillespie(kernel, colors, seed, options, recorder);
}

std::string Reaction::to_string(const pp::Protocol& protocol) const {
  return protocol.state_name(in_a) + " + " + protocol.state_name(in_b) +
         " -> " + protocol.state_name(out_a) + " + " +
         protocol.state_name(out_b);
}

std::vector<Reaction> reactions(const kernel::CompiledProtocol& kernel,
                                std::span<const pp::ColorId> inputs,
                                std::size_t max_reactions) {
  // Determine the state universe: either everything, or the BFS closure of
  // the input states under the transition function.
  std::vector<pp::StateId> universe;
  if (inputs.empty()) {
    universe.reserve(kernel.num_states());
    for (std::uint64_t s = 0; s < kernel.num_states(); ++s) {
      universe.push_back(static_cast<pp::StateId>(s));
    }
  } else {
    std::set<pp::StateId> seen;
    std::queue<pp::StateId> frontier;
    for (const pp::ColorId c : inputs) {
      const pp::StateId s = kernel.input(c);
      if (seen.insert(s).second) frontier.push(s);
    }
    // Closure: repeatedly try all pairs over the known set. The set grows
    // monotonically, so reprocessing the full frontier is sufficient.
    std::vector<pp::StateId> known(seen.begin(), seen.end());
    bool grew = true;
    while (grew) {
      grew = false;
      known.assign(seen.begin(), seen.end());
      for (const pp::StateId a : known) {
        for (const pp::StateId b : known) {
          const pp::Transition tr = kernel.transition(a, b);
          if (seen.insert(tr.initiator).second) grew = true;
          if (seen.insert(tr.responder).second) grew = true;
        }
      }
    }
    universe.assign(seen.begin(), seen.end());
  }

  std::vector<Reaction> out;
  for (const pp::StateId a : universe) {
    for (const pp::StateId b : universe) {
      // One lookup per pair: a sparse kernel past its cache capacity would
      // pay a fresh compute per call, so never nonnull() + transition().
      const pp::Transition tr = kernel.transition(a, b);
      if (tr.initiator == a && tr.responder == b) continue;
      out.push_back({a, b, tr.initiator, tr.responder});
      CIRCLES_CHECK_MSG(out.size() <= max_reactions,
                        "reaction network too large to enumerate");
    }
  }
  return out;
}

std::vector<Reaction> reactions(const pp::Protocol& protocol,
                                std::span<const pp::ColorId> inputs,
                                std::size_t max_reactions) {
  // Default (not one-shot) budget: enumeration touches all ordered pairs of
  // the universe, so the dense build costs exactly the virtual calls the
  // enumeration itself used to make — and every later pair is a load.
  const kernel::CompiledProtocol kernel(protocol);
  return reactions(kernel, inputs, max_reactions);
}

}  // namespace circles::crn
