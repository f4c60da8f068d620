// Provenance for a batch of trials: everything needed to re-run or audit a
// result file six months later — the exact RunSpec string, the backend the
// auto ladder resolved to, the seed, and the build/host environment. The
// BatchRunner fills one per spec (SpecResult::manifest) and writes it next
// to `metrics=` sinks; bench_report embeds one in every BENCH_*.json.
#pragma once

#include <cstdint>
#include <string>

namespace circles::metrics {

struct RunManifest {
  // What ran (filled by the BatchRunner / bench harness).
  std::string spec;     ///< Full RunSpec::to_string() round-trippable string.
  std::string backend;  ///< Resolved backend ("dense_batched", not "auto").
  std::string kernel;   ///< kernel::CompileStats kind, "" if no kernel.
  std::uint64_t seed = 0;
  std::uint32_t trials = 0;
  std::uint32_t threads = 0;      ///< Outer across-trial worker count.
  double utilization = 0.0;  ///< Outer-pool busy fraction over the batch.

  // Where/when it ran (filled by collect()).
  std::string git_describe;  ///< `git describe --always --dirty` at configure.
  std::string build_type;    ///< CMAKE_BUILD_TYPE.
  std::string compiler;      ///< Compiler id + version.
  std::string hostname;
  std::string started_utc;   ///< ISO-8601 UTC, e.g. "2025-01-01T12:00:00Z".
  std::string finished_utc;
  double wall_ms = 0.0;

  /// Environment-only manifest: git/build/host fields plus started_utc set
  /// to now. Callers fill the what-ran fields and finished_utc themselves.
  static RunManifest collect();

  /// Single flat JSON object (one line, no trailing newline).
  std::string to_json() const;
  void write(const std::string& path) const;
};

/// Current wall-clock time as ISO-8601 UTC ("2025-01-01T12:00:00Z").
std::string utc_timestamp_now();

}  // namespace circles::metrics
