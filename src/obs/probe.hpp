// Probe: backend-agnostic run observation over count-level snapshots.
//
// pp::Monitor sees per-AgentId interaction events and therefore only exists
// on the agent-array backend; the dense engines that make n = 1e7 runs
// feasible never materialize agents at all. A Probe instead receives what
// every backend has — the per-state count vector, the interaction index and
// (where tracked) the chemical clock — at the decimated cadence of a
// Recorder, so one observation pipeline serves pp::Engine (with or without
// the chemical clock), both DenseEngine modes and the fluid engine.
#pragma once

#include <cstdint>
#include <span>

#include "obs/trace_table.hpp"
#include "pp/types.hpp"

namespace circles::pp {
class Protocol;
}  // namespace circles::pp

namespace circles::kernel {
class CompiledProtocol;
}

namespace circles::obs {

/// Static facts about the run being observed; valid for its whole duration.
struct ProbeContext {
  const pp::Protocol* protocol = nullptr;
  /// Compiled kernel when the host has one (adjacency-accelerated
  /// active-pair counts, output-table lookups); may be null.
  const kernel::CompiledProtocol* kernel = nullptr;
  std::uint64_t n = 0;
  /// Per-urn partition sizes when the host simulates a clustered population
  /// (dense multi-urn runs); empty on unpartitioned hosts. Index-aligned
  /// with Snapshot::urns.
  std::span<const std::uint64_t> urn_sizes;
};

/// Sentinel: the host did not supply an active-pair count.
inline constexpr std::uint64_t kUnknownActive = ~std::uint64_t{0};

/// One count-level observation.
struct Snapshot {
  /// Interactions executed so far (0 = initial configuration).
  std::uint64_t interactions = 0;
  /// Chemical clock, 0.0 on backends without continuous-time semantics.
  double chemical_time = 0.0;
  /// Per-state counts, indexed by StateId, size num_states.
  std::span<const std::uint64_t> counts;
  /// Ordered agent pairs whose interaction would change a state (exact
  /// silence clock: 0 iff silent), or kUnknownActive. The Recorder computes
  /// it on demand for probes that want_active_pairs().
  std::uint64_t active_pairs = kUnknownActive;
  /// States possibly present — a superset hint that may contain stale
  /// zero-count entries; empty means unknown (scan all counts).
  std::span<const pp::StateId> present;
  /// Per-urn per-state counts (one span per urn, each sized num_states) when
  /// the host partitions the population into urns — clustered dense runs;
  /// empty on unpartitioned hosts. `counts` holds the aggregate either way,
  /// so probes that ignore this field work unchanged on every backend.
  std::span<const std::span<const std::uint64_t>> urns;
  const ProbeContext* ctx = nullptr;
};

class Probe {
 public:
  virtual ~Probe() = default;

  /// Called once before the initial sample.
  virtual void on_begin(const ProbeContext& ctx) { (void)ctx; }

  /// Called at every sample point the probe's grid selects, plus once for
  /// the initial configuration and once for the final one.
  virtual void on_sample(const Snapshot& snapshot) = 0;

  /// Called when the run ends, with the final snapshot. Re-callable: hosts
  /// that re-enter the engine (fault-injection bursts) finish after every
  /// segment, and the last call wins.
  virtual void on_finish(const Snapshot& snapshot) { (void)snapshot; }

  /// Opt into Snapshot::active_pairs (the Recorder pays O(present^2) per
  /// sample to compute it when the host cannot supply it for free).
  virtual bool wants_active_pairs() const { return false; }

  /// The probe's recorded trajectory, or null for probes that only expose
  /// scalars.
  virtual const TraceTable* table() const { return nullptr; }

  /// Moves the trajectory out (end-of-trial harvest; the probe is done).
  /// Default copies table(), or yields an empty table for table-less probes.
  virtual TraceTable take_table() {
    return table() != nullptr ? *table() : TraceTable{};
  }
};

/// Number of active ordered pairs of a configuration given as counts:
/// sum over non-null (s, t) of c_s * (c_t - [s == t]). Uses the kernel's
/// adjacency index when available, virtual transition() calls otherwise.
/// `present` is the optional superset hint from a Snapshot.
std::uint64_t active_pairs_from_counts(
    const ProbeContext& ctx, std::span<const std::uint64_t> counts,
    std::span<const pp::StateId> present = {});

}  // namespace circles::obs
