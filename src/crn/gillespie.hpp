// Continuous-time (chemical) semantics for population protocols.
//
// The paper frames Circles as energy minimization "in chemical settings"
// and cites the CRN literature [Doty 2014; Natale–Ramezani 2019]. A
// population protocol IS a chemical reaction network: species = states,
// bimolecular reactions = non-null transitions, well-mixed solution =
// uniform scheduler. Under standard kinetics every ordered pair of distinct
// molecules collides at rate 1/n, so interaction times follow a Poisson
// process with total rate n−1 and the expected "parallel time" of T
// interactions is T/n.
//
// GillespieResult augments the discrete engine run with exact stochastic
// simulation times; because all pair propensities are equal, the embedded
// jump chain is exactly the uniform-random scheduler, and the discrete and
// continuous semantics agree on everything but the clock (tested).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pp/engine.hpp"
#include "pp/monitor.hpp"
#include "util/rng.hpp"

namespace circles::kernel {
class CompiledProtocol;
}

namespace circles::obs {
class Recorder;
}

namespace circles::crn {

/// Accumulates exponential inter-collision times alongside a discrete run:
/// after interaction m the chemical clock reads the sum of m Exp(rate)
/// variables. Records the clock at the last state change (= stabilization
/// time) and at the last output flip (= convergence time). The output-flip
/// predicate is the kernel's precomputed per-pair output-delta flag (one
/// load); `kernel` must outlive the monitor.
class ExponentialClockMonitor final : public pp::Monitor {
 public:
  ExponentialClockMonitor(std::uint64_t seed,
                          const kernel::CompiledProtocol& kernel);

  void on_start(const pp::Population& population,
                const pp::Protocol& protocol) override;
  void on_interaction(const pp::InteractionEvent& event,
                      const pp::Population& population) override;

  double now() const { return now_; }
  double last_change_time() const { return last_change_time_; }
  double last_output_change_time() const { return last_output_change_time_; }

 private:
  util::Rng rng_;
  const kernel::CompiledProtocol* kernel_;
  double rate_ = 1.0;  // n − 1: total collision rate of the solution
  double now_ = 0.0;
  double last_change_time_ = 0.0;
  double last_output_change_time_ = 0.0;
};

struct GillespieResult {
  pp::RunResult run;
  /// Chemical time at which the last state change happened.
  double stabilization_time = 0.0;
  /// Chemical time at which the last announced output flipped.
  double convergence_time = 0.0;
  /// Discrete proxy used throughout the PP literature: interactions / n.
  double parallel_time = 0.0;
};

/// Runs `protocol` on `colors` under chemical kinetics until silence (or the
/// engine budget). Deterministic in `seed` (a recorder never perturbs the
/// run's RNG streams). Compiles a one-shot kernel; the overload below shares
/// a prebuilt one across trials. `recorder`, when non-null, receives count
/// snapshots stamped with the exponential clock — pair it with
/// obs::RecorderOptions::Clock::kChemical for chemical-time cadence.
GillespieResult run_gillespie(const pp::Protocol& protocol,
                              std::span<const pp::ColorId> colors,
                              std::uint64_t seed,
                              pp::EngineOptions options = {},
                              obs::Recorder* recorder = nullptr);

GillespieResult run_gillespie(const kernel::CompiledProtocol& kernel,
                              std::span<const pp::ColorId> colors,
                              std::uint64_t seed,
                              pp::EngineOptions options = {},
                              obs::Recorder* recorder = nullptr);

/// One reaction of the network induced by a protocol.
struct Reaction {
  pp::StateId in_a;
  pp::StateId in_b;
  pp::StateId out_a;
  pp::StateId out_b;

  std::string to_string(const pp::Protocol& protocol) const;
};

/// Enumerates the non-null reactions of a protocol, optionally restricted to
/// the states reachable from the given inputs (BFS closure over transitions)
/// so that large state spaces stay printable. The rate construction runs on
/// a compiled kernel (the protocol overload compiles a one-shot one), so
/// pair enumeration pays table loads, not virtual dispatch.
std::vector<Reaction> reactions(const pp::Protocol& protocol,
                                std::span<const pp::ColorId> inputs = {},
                                std::size_t max_reactions = 100000);

std::vector<Reaction> reactions(const kernel::CompiledProtocol& kernel,
                                std::span<const pp::ColorId> inputs = {},
                                std::size_t max_reactions = 100000);

}  // namespace circles::crn
