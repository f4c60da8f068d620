// Span tracing + flight recorder.
//
// Two consumers share one event stream:
//
//  * Timelines: per-thread ring buffers of begin/end/instant events drained
//    into Chrome Trace Event Format JSON (load the file in chrome://tracing
//    or https://ui.perfetto.dev) so "where does the time go" is answerable
//    per batch phase, per trial, per dense epoch, per batch thread.
//  * Failure forensics: the same bounded rings double as a flight recorder.
//    When a trial fails (grader fail, exhausted budget, validation abort,
//    uncaught worker exception) the BatchRunner dumps the last-N events plus
//    the full RunSpec string, resolved backend, and per-trial seed as a
//    single greppable `REPRO: sweep --spec='...' --trial-seed=...` line that
//    replays the identical trial standalone.
//
// Design rules, inherited from the metrics layer and load-bearing for the
// determinism contract:
//
//  * Tracing NEVER touches the trial RNG streams or reorders work: spans-on
//    and spans-off runs are bitwise identical on every backend (tested).
//  * Everything keys off a `Tracer*` that defaults to nullptr. Call sites
//    resolve their thread's `TraceBuffer*` once per trial, engine run or
//    probe flush; with no tracer attached the hot paths compile down to a
//    null-pointer test and a null ScopedSpan never reads the clock.
//  * Emission is owner-thread-only into a lock-free power-of-two ring
//    (per-field relaxed stores, one release store on the write index), so a
//    worker emitting a span never contends with another thread. Readers
//    (export, flight dump) acquire the index and tolerate losing a lap race
//    to a still-running writer — slots carry no pointers a writer could
//    invalidate, only static-string names and integers.
//  * Rings overwrite: a long run keeps its most recent window (the flight
//    recorder semantics) instead of growing without bound. The exporter
//    repairs the resulting orphaned begin/end pairs so the JSON always
//    validates (see write_chrome_trace).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace circles::trace {

struct TracerOptions {
  /// Events retained per thread (rounded up to a power of two). Sized so a
  /// multi-trial batch keeps its setup spans (kernel.compile, batch.trial):
  /// one batch thread runs several trials in turn, each leaving its
  /// decimated engine spans (~15k per trial) on that thread's ring.
  /// ~40 bytes per slot, allocated per registered thread, tracing opt-in.
  std::size_t buffer_capacity = 1 << 16;
  /// Events per flight-recorder dump (most recent first across threads).
  std::size_t flight_recorder_events = 64;
};

/// One drained event. `name`/`arg_name`/`thread_name` stay valid while the
/// owning Tracer is alive; names are static strings by contract.
struct Event {
  const char* name = nullptr;
  const char* arg_name = nullptr;  // nullptr = no args object
  std::uint64_t arg = 0;
  std::uint64_t ts_ns = 0;  // steady-clock nanoseconds since tracer epoch
  std::uint64_t tid = 0;    // real OS thread id where available
  const char* thread_name = nullptr;
  char ph = 0;  // 'B' begin | 'E' end | 'i' instant
};

/// The per-thread ring. Only the owning thread emits; any thread may drain.
class TraceBuffer {
 public:
  TraceBuffer(std::size_t capacity, std::uint64_t tid, std::string name,
              std::chrono::steady_clock::time_point epoch);

  void begin(const char* name) { emit('B', name, nullptr, 0); }
  void begin(const char* name, const char* arg_name, std::uint64_t arg) {
    emit('B', name, arg_name, arg);
  }
  void end(const char* name) { emit('E', name, nullptr, 0); }
  void instant(const char* name) { emit('i', name, nullptr, 0); }
  void instant(const char* name, const char* arg_name, std::uint64_t arg) {
    emit('i', name, arg_name, arg);
  }

  std::uint64_t tid() const { return tid_; }
  const std::string& thread_name() const { return name_; }
  /// Events emitted minus events retained (ring overwrites).
  std::uint64_t dropped() const;

  /// Appends this buffer's retained events (oldest first) to `out`.
  void drain_into(std::vector<Event>& out) const;

 private:
  // One ring slot. Fields are individually-relaxed atomics so a concurrent
  // drain during a lap is an allowed stale read, not a data race; the
  // release store on count_ publishes completed slots.
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> arg_name{nullptr};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<char> ph{0};
  };

  void emit(char ph, const char* name, const char* arg_name,
            std::uint64_t arg);

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_;
  std::size_t mask_;
  std::atomic<std::uint64_t> count_{0};  // total events ever emitted
  std::uint64_t tid_;
  std::string name_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Everything the flight recorder needs to make a failure reproducible.
struct FailureContext {
  std::string spec;     // full RunSpec string, resolved backend baked in
  std::string backend;  // resolved backend name
  std::uint64_t trial_index = 0;
  std::uint64_t trial_seed = 0;
  std::string reason;         // "grader fail", "budget_exhausted", ...
  std::string verdict;        // "correct=0 silent=0 ..." (empty: no outcome)
  std::string final_outputs;  // space-separated counts (empty: no outcome)
};

/// Owns the per-thread buffers and the export/dump machinery. A tracer keeps
/// one ring for every thread that touches it, for the tracer's lifetime;
/// BatchRunner::run starts fresh threads per batch, so one Tracer serves one
/// batch (or one spec under `spans=PATH`). Attach via BatchOptions::tracer,
/// SessionBuilder::spans(), or sweep --spans-out.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// This thread's buffer, registering it on first use. `name_hint` labels
  /// the thread in the exported timeline ("trial-worker" becomes "trial-worker-3"); it
  /// is only consulted at registration, so later calls may pass nullptr.
  /// The constructing thread is pre-registered as "main". Lookup takes the
  /// tracer's mutex; call sites resolve their buffer once per trial, engine
  /// run or probe flush, never per event.
  TraceBuffer* thread_buffer(const char* name_hint = nullptr);

  /// Snapshot of every buffer's retained events, sorted by timestamp
  /// (stable: same-timestamp events keep per-thread emission order).
  std::vector<Event> drain() const;

  /// Chrome Trace Event Format: a JSON array of {name, ph, ts, pid, tid}
  /// objects with 'M' thread_name metadata, ts in microseconds. Ring
  /// eviction is repaired at export so B/E always match: an 'E' whose 'B'
  /// was overwritten is dropped, an unclosed 'B' gets a synthesized 'E' at
  /// the last retained timestamp.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  /// Flight-recorder dump: the failure context, the last-N events across
  /// all threads, and the greppable REPRO line. Serialized internally so
  /// concurrent failing trials don't interleave their blocks.
  void dump_failure(const FailureContext& ctx, std::FILE* out) const;

  std::uint64_t events_dropped() const;

 private:
  TracerOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // buffer lookup + dump serialization
  std::vector<std::unique_ptr<TraceBuffer>> owned_;  // guarded by mutex_
};

/// Null-safe buffer resolution: the one-liner engines use at run start.
inline TraceBuffer* buffer(Tracer* tracer, const char* name_hint = nullptr) {
  return tracer == nullptr ? nullptr : tracer->thread_buffer(name_hint);
}

/// RAII span over a (possibly null) buffer. A null span never reads the
/// clock — the disabled path is two pointer tests.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name)
      : buffer_(buffer), name_(name) {
    if (buffer_ != nullptr) buffer_->begin(name_);
  }
  ScopedSpan(TraceBuffer* buffer, const char* name, const char* arg_name,
             std::uint64_t arg)
      : buffer_(buffer), name_(name) {
    if (buffer_ != nullptr) buffer_->begin(name_, arg_name, arg);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->end(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  const char* name_;
};

}  // namespace circles::trace
