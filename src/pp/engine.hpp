// The simulation engine: drives protocol x population x scheduler.
//
// Termination policy:
//  * For periodic schedulers (fairness_period() > 0) a change-free full
//    period is itself an exact silence proof: every ordered agent pair was
//    scheduled and none changed, hence no pair can change.
//  * Otherwise, after change-free streaks the engine runs the exact O(d^2)
//    silence check of silence.hpp, with exponential backoff so nearly-stable
//    phases are not dominated by checking.
//  * A hard interaction budget bounds runs of protocols that never silence.
#pragma once

#include <cstdint>
#include <span>

#include "pp/monitor.hpp"
#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/run_result.hpp"
#include "pp/scheduler.hpp"

namespace circles::kernel {
class CompiledProtocol;
}

namespace circles::metrics {
class MetricsRegistry;
}

namespace circles::trace {
class Tracer;
}

namespace circles::pp {

struct EngineOptions {
  /// Hard cap on interactions; runs hitting it report budget_exhausted.
  std::uint64_t max_interactions = 500'000'000;

  /// Stop as soon as silence is certified (otherwise run to the budget).
  bool stop_when_silent = true;

  /// First change-free streak length that triggers an exact silence check
  /// for non-periodic schedulers; doubles after every failed check.
  std::uint64_t initial_silence_streak = 64;

  /// Optional telemetry sink; every engine consuming EngineOptions (agent,
  /// gillespie, dense, fluid) flushes work counters into it at run
  /// boundaries. Null disables telemetry at zero hot-path cost; results are
  /// bitwise identical either way (metrics never touch an RNG stream).
  metrics::MetricsRegistry* metrics = nullptr;

  /// Optional span tracer; engines consuming EngineOptions emit phase spans
  /// and decimated work events into it (see src/trace/). Same contract as
  /// `metrics`: null disables tracing at the cost of a pointer test, and
  /// spans-on vs spans-off runs are bitwise identical on every backend
  /// (tracing never touches an RNG stream or reorders work).
  trace::Tracer* tracer = nullptr;

  /// Must be 1; no engine reads it (every run is serial inside, and
  /// across-trial parallelism is BatchOptions::threads). Kept only because
  /// perfbench/ still assigns it; the next change to the benchmark deletes
  /// it together with that assignment.
  std::uint32_t run_threads = 1;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(options) {}

  /// Runs until silence (if enabled) or budget exhaustion over a prebuilt
  /// kernel (the BatchRunner compiles one per spec and shares it across
  /// trials and threads). Monitors are optional and may be empty. Every
  /// transition and silence check goes through the kernel; the engine makes
  /// no virtual transition() calls.
  RunResult run(const kernel::CompiledProtocol& kernel, Population& population,
                Scheduler& scheduler, std::span<Monitor* const> monitors = {});

  /// Convenience for one-off runs: compiles a one-shot kernel for
  /// `protocol` and runs the overload above.
  RunResult run(const Protocol& protocol, Population& population,
                Scheduler& scheduler, std::span<Monitor* const> monitors = {});

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
};

/// Convenience: build a population from colors, run, and return the result.
RunResult run_protocol(const Protocol& protocol,
                       std::span<const ColorId> colors, Scheduler& scheduler,
                       EngineOptions options = {},
                       std::span<Monitor* const> monitors = {});

}  // namespace circles::pp
