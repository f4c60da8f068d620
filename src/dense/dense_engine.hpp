// DenseEngine: simulate lumpable schedulers directly on counts.
//
// The agent-array engine (pp::Engine) costs O(1) per interaction plus two
// random accesses into an O(n) array; at n >= 10^7 those accesses are cache
// misses and the array itself dominates memory. The dense engine never
// materializes agents — a configuration is its count vector(s) and a
// simulation step is a draw from the counts.
//
// The engine's data model is a *multi-urn* partition: the population splits
// into urns (clusters), each holding its own count vector, and an ordered
// urn-pair rate matrix (pp::UrnLumping) fixes which block every interaction
// lands in. The uniform scheduler is the 1-urn specialization; the clustered
// scheduler is the canonical multi-urn instance (its lumping() IS this
// contract). Two modes:
//
//  * kPerStep — every interaction samples the urn-pair block (skipped when
//    there is one urn), then the ordered (initiator, responder) state pair
//    exactly as the lumped scheduler would: initiator weighted by the
//    initiator urn's counts, responder by the responder urn's counts (with
//    the initiator removed on intra blocks). A null interaction costs
//    O(present states) and a state change O(U + deg + present), where deg
//    is a touched state's non-null partner count: the per-block active-pair
//    counts move by exact integer deltas. All of it is independent of n.
//    This is the reference semantics used by the cross-validation tests.
//
//  * kBatched — the sqrt(n) batching of Berenbrink et al. (arXiv:1805.05157,
//    "Simulating Population Protocols in Sub-Constant Time per
//    Interaction") generalized across the block structure: sample the exact
//    collision-free prefix (single urn: precomputed survival table, one
//    uniform; multi-urn: the exact sequential block/collision chain — all
//    participants distinct *within each urn*), draw the participants' states
//    per urn via multivariate hypergeometrics, split them across their
//    initiator/responder roles per block, pair initiators with responders by
//    hypergeometric contingency sampling per block, apply all transitions to
//    the counts at once, then resolve the single colliding interaction
//    explicitly and start the next epoch. When activity is sparse (fewer
//    than ~3 expected state changes per epoch) the engine switches to
//    geometric fast-forward: the number of null interactions before the next
//    state change is Geometric(p) with p = sum_b rate_b * active_b /
//    pairs_b, so null-dominated phases — the dominant regime of slow-mixing
//    clustered runs — cost O(U^2 + present + deg) per state change (the
//    block draw, the pair draw and the delta update) instead of O(1) per
//    interaction.
//
// Both modes sample the same lumped Markov chain as pp::Engine under the
// corresponding scheduler (agents within an urn are anonymous, so the
// per-urn count process is exactly lumpable): state_changes,
// last_change_step and the final configuration are identical in
// distribution. Silence is detected exactly — the per-block counts of
// active ordered pairs, summed over blocks with positive rate, hit zero —
// so a silent run reports interactions = last_change_step + 1, without the
// agent engine's streak-heuristic detection overhead.
//
// Determinism: single-urn runs consume the main RNG stream exactly as the
// historical single-urn engine did (bitwise-identical results). Multi-urn
// epochs give every urn and every urn-pair block a sub-stream derived with
// util::Rng::fork, so per-block draws are reproducible regardless of block
// iteration order.
//
// A run is serial: epochs follow each other and each multi-urn epoch is
// only U urn deals and U^2 small block pairings, so parallelism lives
// across trials (sim::BatchRunner), not inside one run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/urn_config.hpp"
#include "kernel/compiled_protocol.hpp"
#include "pp/engine.hpp"
#include "pp/protocol.hpp"
#include "pp/run_result.hpp"
#include "pp/scheduler.hpp"
#include "util/rng.hpp"

namespace circles::obs {
class Recorder;
}

namespace circles::dense {

enum class DenseMode {
  kPerStep,  // one sampled state pair per interaction
  kBatched,  // collision-free epochs of ~sqrt(n) interactions
};

class DenseEngine {
 public:
  /// Compiles a kernel::CompiledProtocol for `protocol` (dense transition
  /// table when the state space fits the kernel's budget, lazily-hashed
  /// pair cache otherwise) and delegates to the shared-kernel constructor
  /// below; `protocol` must outlive the engine. EngineOptions is shared
  /// with pp::Engine: max_interactions and stop_when_silent apply;
  /// initial_silence_streak is meaningless here (silence is exact) and
  /// ignored. `lumping` fixes the urn structure: empty (default) means a
  /// single urn sized by whatever configuration run() receives (the uniform
  /// scheduler); a validated multi-urn lumping makes run(UrnConfig&)
  /// simulate that block structure.
  explicit DenseEngine(const pp::Protocol& protocol,
                       pp::EngineOptions options = {},
                       DenseMode mode = DenseMode::kPerStep,
                       pp::UrnLumping lumping = {});

  /// Shares a prebuilt immutable kernel (the BatchRunner compiles one per
  /// spec and hands it to every trial on every thread). Every transition
  /// the engine samples goes through it; results do not depend on the
  /// kernel's table kind.
  DenseEngine(std::shared_ptr<const kernel::CompiledProtocol> kernel,
              pp::EngineOptions options = {},
              DenseMode mode = DenseMode::kPerStep,
              pp::UrnLumping lumping = {});

  /// Advances `config` in place until exact silence (if stop_when_silent)
  /// or budget exhaustion. Thread-safe: all mutable state is local, so one
  /// engine may serve concurrent trials. `recorder`, when non-null,
  /// receives count snapshots at its grid's cadence — exact per-interaction
  /// indices in per-step mode, epoch-boundary indices in batched mode (the
  /// recorder is per-trial state and does not affect thread safety of the
  /// engine itself). Multi-urn hosts feed the recorder aggregate counts
  /// (plus the per-urn matrix on the Snapshot). The DenseConfig overloads
  /// require a single-urn engine; the UrnConfig overloads accept either (a
  /// 1-urn UrnConfig on a single-urn engine consumes the identical RNG
  /// stream as the DenseConfig path).
  pp::RunResult run(DenseConfig& config, util::Rng& rng,
                    obs::Recorder* recorder = nullptr) const;
  pp::RunResult run(DenseConfig& config, std::uint64_t seed,
                    obs::Recorder* recorder = nullptr) const;
  pp::RunResult run(UrnConfig& config, util::Rng& rng,
                    obs::Recorder* recorder = nullptr) const;
  pp::RunResult run(UrnConfig& config, std::uint64_t seed,
                    obs::Recorder* recorder = nullptr) const;

  const pp::Protocol& protocol() const { return kernel_->protocol(); }
  const kernel::CompiledProtocol& compiled() const { return *kernel_; }
  DenseMode mode() const { return mode_; }
  const pp::EngineOptions& options() const { return options_; }
  /// Empty sizes = single urn of whatever n the configuration carries.
  const pp::UrnLumping& lumping() const { return lumping_; }

 private:
  struct Sim;

  /// The 1x1 rate matrix of the uniform scheduler (single-urn runs).
  static const double kUniformRate;

  pp::RunResult run_impl(Sim& sim, obs::Recorder* recorder) const;
  void run_per_step(Sim& sim, pp::RunResult& result,
                    obs::Recorder* recorder) const;
  void run_batched(Sim& sim, pp::RunResult& result,
                   obs::Recorder* recorder) const;

  pp::Transition transition(pp::StateId a, pp::StateId b) const {
    return kernel_->transition(a, b);
  }
  bool nonnull(pp::StateId a, pp::StateId b) const {
    return kernel_->nonnull(a, b);
  }

  std::shared_ptr<const kernel::CompiledProtocol> kernel_;
  pp::EngineOptions options_;
  DenseMode mode_;
  std::uint64_t num_states_;
  pp::UrnLumping lumping_;
};

}  // namespace circles::dense
