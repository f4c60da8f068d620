// Recorder: fans decimated count snapshots out to a set of probes.
//
// The host (any engine) calls begin() once, advance() whenever convenient —
// per interaction on exact backends, per epoch in batched mode — and
// finish() at the end. Each probe samples on its own GridSpec; between due
// points advance() is a single comparison, which is what keeps observation
// under the <10% overhead budget even in per-interaction loops.
//
// Sampling semantics per probe: the initial configuration (x = 0) is always
// sampled; thereafter ONE sample fires whenever advance() first reaches or
// passes a due point, carrying the host's actual position (exact interaction
// index and current counts — batched hosts therefore sample at epoch
// boundaries rather than pretending mid-epoch counts exist); all due points
// at or below that position are then consumed. finish() emits a final
// sample when the run ended past the last one, then calls on_finish().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/grid.hpp"
#include "obs/probe.hpp"

namespace circles::trace {
class Tracer;
}

namespace circles::obs {

struct RecorderOptions {
  enum class Clock {
    kInteractions,  // due points are interaction indices
    kChemical,      // due points are chemical times (chemical-clock hosts)
  };
  Clock clock = Clock::kInteractions;

  /// Grid horizon under kInteractions: the run's interaction budget.
  std::uint64_t interaction_horizon = 0;
  /// Grid horizon under kChemical: the expected chemical time at budget
  /// (budget / n for uniform-rate kinetics).
  double chemical_horizon = 0.0;

  /// Span tracer (see src/trace/): each probe flush emits one instant on the
  /// sampling thread's track. Null = tracing off; sampling itself is never
  /// affected (tracing is observation-only by contract).
  trace::Tracer* tracer = nullptr;
};

class Recorder {
 public:
  explicit Recorder(RecorderOptions options = {}) : options_(options) {}

  /// Registers a probe sampling on `grid`. Non-owning; the probe must
  /// outlive the recorder's run.
  void add(Probe* probe, GridSpec grid = {});

  std::span<Probe* const> probes() const { return probes_; }
  const RecorderOptions& options() const { return options_; }

  // --- host API -----------------------------------------------------------

  /// Materializes the grids and emits the initial sample (x = 0) to every
  /// probe. Idempotent: engine re-entry (fault bursts) begins only once.
  /// `urns`, on every host entry point, is the optional per-urn count matrix
  /// of partitioned (clustered dense) hosts — see Snapshot::urns.
  void begin(const ProbeContext& ctx, std::span<const std::uint64_t> counts,
             std::uint64_t active_pairs = kUnknownActive,
             std::span<const pp::StateId> present = {},
             std::span<const std::span<const std::uint64_t>> urns = {});

  /// Hot-path notification; returns immediately unless a probe is due.
  void advance(std::uint64_t interactions, double chemical_time,
               std::span<const std::uint64_t> counts,
               std::uint64_t active_pairs = kUnknownActive,
               std::span<const pp::StateId> present = {},
               std::span<const std::span<const std::uint64_t>> urns = {}) {
    if (!due(interactions, chemical_time)) return;
    sample(interactions, chemical_time, counts, active_pairs, present, urns);
  }

  /// Whether advance() at this position would sample. A host whose counts
  /// cost work to assemble tests this first and calls sample() only when it
  /// holds; advance() is exactly that pair.
  bool due(std::uint64_t interactions, double chemical_time) const {
    return position(interactions, chemical_time) >= next_due_;
  }

  /// Samples every probe due at this position (see the class comment).
  void sample(std::uint64_t interactions, double chemical_time,
              std::span<const std::uint64_t> counts,
              std::uint64_t active_pairs = kUnknownActive,
              std::span<const pp::StateId> present = {},
              std::span<const std::span<const std::uint64_t>> urns = {});

  /// Final sample (if the run ended past each probe's last one) plus
  /// on_finish() fan-out. Re-callable; see Probe::on_finish.
  void finish(std::uint64_t interactions, double chemical_time,
              std::span<const std::uint64_t> counts,
              std::uint64_t active_pairs = kUnknownActive,
              std::span<const pp::StateId> present = {},
              std::span<const std::span<const std::uint64_t>> urns = {});

 private:
  struct Entry {
    Probe* probe;
    GridSpec grid;
    std::vector<double> due;  // ascending sample positions
    std::size_t cursor = 0;
    double last_sampled = -1.0;
  };

  double position(std::uint64_t interactions, double chemical_time) const {
    return options_.clock == RecorderOptions::Clock::kChemical
               ? chemical_time
               : static_cast<double>(interactions);
  }

  Snapshot make_snapshot(std::uint64_t interactions, double chemical_time,
                         std::span<const std::uint64_t> counts,
                         std::uint64_t active_pairs,
                         std::span<const pp::StateId> present,
                         std::span<const std::span<const std::uint64_t>> urns,
                         bool need_active) const;

  void refresh_next_due();

  RecorderOptions options_;
  std::vector<Probe*> probes_;
  std::vector<Entry> entries_;
  ProbeContext ctx_;
  bool begun_ = false;
  /// Position of the next due sample across all probes; +inf when none
  /// (before begin() and after all grids are exhausted).
  double next_due_ = kNever;

  static constexpr double kNever = 1.0e308;
};

}  // namespace circles::obs
