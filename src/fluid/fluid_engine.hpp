// FluidEngine: the mean-field tier of the backend ladder.
//
// The lumped count chain of a population protocol concentrates around its
// mean-field ODE as n grows: with x_s the fraction of agents in state s and
// one interaction per 1/n chemical time, dx/dt = sum over non-null ordered
// pairs (a, b) -> (a', b') of x_a * x_b * (e_a' + e_b' - e_a - e_b). The
// fluctuations around the ODE are O(1/sqrt(n)), so at n = 1e9..1e12 — where
// even the batched dense engine pays ~sqrt(n) work per epoch — integrating
// the ODE reproduces the trajectory statistics to better accuracy than the
// discrete chain's own trial-to-trial noise, at a cost independent of n.
//
// The engine integrates the ODE with an embedded Bogacki–Shampine 3(2)
// Runge–Kutta pair under standard rtol/atol step control. Drift terms come
// from a DriftTable compiled once at construction from the kernel IR, so
// any registry protocol runs with zero per-protocol code; the
// multi-urn lumping of the clustered scheduler is the same block structure
// the dense engine uses, one fraction vector per urn. The trajectory is a
// pure function of (configuration, options): deterministic to the bit for a
// fixed spec; runs ignore the seed.
//
// Convergence/silence detection: when the drift infinity-norm
// falls below FluidOptions::drift_tol (default 0.5/n — the drift can no
// longer move half an agent per unit time) AND the fractions rounded to
// integer counts form an exactly silent configuration, the run stops with
// silent = true. A run parked at a mean-field fixed point that is not a
// silent configuration reports budget_exhausted, like a discrete engine
// that never silences. Caveat inherited from the model, not the
// integrator: dynamics the discrete chain resolves by noise — an exact tie,
// or a sub-race between near-tied colors — are fluctuation-free here, so
// they either converge exponentially slowly (expect budget_exhausted) or
// tip over on floating-point rounding. When that noise is the quantity of
// interest, run the spec on a dense backend (dense_batched at large n),
// which samples the exact count chain.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/urn_config.hpp"
#include "fluid/drift_table.hpp"
#include "kernel/compiled_protocol.hpp"
#include "pp/engine.hpp"
#include "pp/run_result.hpp"
#include "pp/scheduler.hpp"

namespace circles::obs {
class Recorder;
}

namespace circles::fluid {

struct FluidOptions {
  /// Per-step relative/absolute error tolerances of the adaptive RK
  /// controller, applied to the per-urn state fractions.
  double rtol = 1e-6;
  double atol = 1e-9;

  /// Drift infinity-norm (fractions per unit chemical time) below which the
  /// integrator tests the rounded configuration for exact silence. 0 = auto:
  /// 0.5 / n.
  double drift_tol = 0.0;

  /// Hard cap on accepted-plus-rejected integrator steps (stiffness guard;
  /// hitting it reports budget_exhausted).
  std::uint64_t max_steps = 50'000'000;

  /// DriftTable compile budget (transition lookups).
  std::uint64_t max_pair_lookups = 1ull << 26;
};

class FluidEngine {
 public:
  /// Compiles a kernel::CompiledProtocol for `protocol` and delegates to
  /// the shared-kernel constructor below. `protocol` must outlive the
  /// engine. `lumping` empty = single uniform urn.
  explicit FluidEngine(const pp::Protocol& protocol,
                       pp::EngineOptions engine = {}, FluidOptions options = {},
                       pp::UrnLumping lumping = {});

  /// Compiles the drift table from the kernel IR (dense table or sparse
  /// cache, CSR adjacency when built). Shares kernel ownership.
  explicit FluidEngine(std::shared_ptr<const kernel::CompiledProtocol> kernel,
                       pp::EngineOptions engine = {}, FluidOptions options = {},
                       pp::UrnLumping lumping = {});

  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  const pp::Protocol& protocol() const { return kernel_->protocol(); }
  const kernel::CompiledProtocol& compiled() const { return *kernel_; }
  const pp::EngineOptions& options() const { return engine_; }
  const FluidOptions& fluid_options() const { return options_; }
  const pp::UrnLumping& lumping() const { return lumping_; }
  const DriftTable& drift() const { return drift_; }

  /// Mean-field drift dx/dt in chemical time at per-urn species fractions
  /// `x` (row-major num_urns x num_species over drift().species()).
  /// Exposed for the drift-vs-exact-expectation tests; run() uses the same
  /// evaluation internally.
  void eval_drift(std::span<const double> x, std::span<double> dxdt) const;

  /// Integrates from the configuration, writes the final (rounded) counts
  /// back, reports RunResult in the discrete engines' units (interactions =
  /// chemical time * n). Thread-safe/const like DenseEngine::run. Requires
  /// every state holding mass to lie in the drift table's closure. The
  /// single-configuration overload needs a single-urn lumping; the urn
  /// overload needs the engine's lumping to match the configuration shape.
  /// `seed` is ignored: it keeps the signature sim::run_counts shares with
  /// DenseEngine::run.
  pp::RunResult run(dense::DenseConfig& config, std::uint64_t seed,
                    obs::Recorder* recorder = nullptr) const;
  pp::RunResult run(dense::UrnConfig& config, std::uint64_t seed,
                    obs::Recorder* recorder = nullptr) const;

 private:
  /// Drift accumulation shared by eval_drift and run_ode; returns the
  /// probability that one interaction is non-null (the state-change rate is
  /// n times it).
  double drift_and_rate(std::span<const double> x,
                        std::span<double> dxdt) const;

  pp::RunResult run_counts(std::vector<std::vector<std::uint64_t>>& urns,
                           obs::Recorder* recorder) const;
  struct Sim;
  void run_ode(Sim& sim) const;

  void init_blocks();

  std::shared_ptr<const kernel::CompiledProtocol> kernel_;
  pp::EngineOptions engine_;
  FluidOptions options_;
  pp::UrnLumping lumping_;  // empty = single uniform urn
  DriftTable drift_;

  // Block structure flattened for the drift loops: a single uniform urn is
  // one block of rate 1; a multi-urn lumping carries its own rate matrix.
  // scale_[u] = n / n_u converts per-interaction count deltas into
  // per-chemical-time fraction derivatives for urn u.
  std::size_t num_urns_ = 1;
  std::vector<double> rates_;  // num_urns_^2, row-major
  std::vector<double> scale_;  // per urn
};

}  // namespace circles::fluid
