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
// ExponentialClockMonitor puts that clock on a discrete agent run: a
// clock=chemical trial is the ordinary sim::AgentTrial with this monitor
// first in its monitor list. Because all pair propensities are equal, the
// embedded jump chain of Gillespie kinetics is exactly the uniform-random
// scheduler, so under scheduler=uniform the clocked run IS an exact
// stochastic simulation; under any other scheduler the clock stamps each
// interaction with an Exp(n−1) wait. The clock draws from its own stream,
// so the discrete run is the same with or without it (tested).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pp/monitor.hpp"
#include "util/rng.hpp"

namespace circles::kernel {
class CompiledProtocol;
}

namespace circles::crn {

/// Accumulates exponential inter-collision times alongside a discrete run:
/// after interaction m the chemical clock reads the sum of m Exp(rate)
/// variables. Records the clock at the last state change (= stabilization
/// time) and at the last output flip (= convergence time). The output-flip
/// predicate is the kernel's precomputed per-pair output-delta flag (one
/// load); `kernel` must outlive the monitor. Survives engine re-entry
/// (fault bursts): only the first on_start resets the clock, so it keeps
/// running across the bursts of one trial.
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
  bool begun_ = false;
};

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
