// The bridge from the event world (pp::Monitor) to the count world (obs).
//
// RecorderMonitor drives a Recorder from the agent-array engine.
// pp::Population already maintains the per-state count vector, so the
// monitor only forwards snapshots at the recorder's cadence; between due
// points an interaction costs one comparison. Survives engine re-entry
// (fault-injection bursts) by offsetting the per-run step counter.
// Event-level monitors (bra-ket invariant and potential-descent checkers)
// run next to it in the same monitor list on the agent backend.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/recorder.hpp"
#include "pp/monitor.hpp"

namespace circles::obs {

class RecorderMonitor final : public pp::Monitor {
 public:
  /// `kernel`, when available, accelerates on-demand active-pair counts.
  /// `chemical_now`, when set, is read per interaction and stamped on every
  /// snapshot (the Gillespie host passes its exponential clock).
  explicit RecorderMonitor(Recorder& recorder,
                           const kernel::CompiledProtocol* kernel = nullptr,
                           std::function<double()> chemical_now = {})
      : recorder_(&recorder),
        kernel_(kernel),
        chemical_now_(std::move(chemical_now)) {}

  void on_start(const pp::Population& population,
                const pp::Protocol& protocol) override;
  void on_interaction(const pp::InteractionEvent& event,
                      const pp::Population& population) override;
  void on_finish(const pp::Population& population) override;

 private:
  double now() const { return chemical_now_ ? chemical_now_() : 0.0; }

  Recorder* recorder_;
  const kernel::CompiledProtocol* kernel_;
  std::function<double()> chemical_now_;
  /// Steps executed in earlier engine entries of the same trial; the
  /// engine's event.step restarts at 0 per run.
  std::uint64_t base_steps_ = 0;
  std::uint64_t last_abs_step_ = 0;
  bool begun_ = false;
};

}  // namespace circles::obs
