// CompiledProtocol: one transition IR shared by every engine.
//
// This module lowers a pp::Protocol ONCE into an immutable, thread-shareable
// kernel, and it is the only transition path of every engine (agent array,
// dense, fluid): no steady-state loop makes a virtual
// Protocol::transition() call. Protocol::transition stays the reference the
// kernel is checked against pair by pair. The kernel carries everything the
// hot loops need:
//
//  * the transition function itself, virtual-dispatch-free;
//  * per-pair flags — null-ness (exact silence detection) and whether the
//    transition flips any announced output (the CRN convergence clock);
//  * a per-state "active responder" adjacency index (which t make (s, t)
//    non-null), in CSR layout, for silence checks and successor enumeration
//    that skip null pairs wholesale;
//  * a per-state output-symbol array replacing virtual output() lookups.
//
// Two table kinds, chosen by a memory budget at compile time:
//
//  * kDense — a flat num_states^2 table (transition + flags, one load per
//    lookup). Built eagerly; the only layout small state spaces need.
//  * kSparse — for cubic state spaces (the paper's circles protocol has k^3
//    states, so k^6 ordered pairs) a full table is impossible. Instead a
//    fixed-capacity, lock-free open-addressing cache materializes entries
//    lazily over the pairs actually reached: the first lookup of a pair
//    computes it via the virtual function and publishes it; every later
//    lookup — from any thread — is a hash probe. Steady-state loops
//    therefore make zero virtual transition() calls under either kind.
//
// The kernel is immutable in the API sense: concurrent readers never
// coordinate, sparse publication is a single release-CAS per distinct pair,
// and duplicated racing inserts are benign (the transition function is
// deterministic, so both writers publish identical bytes).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pp/protocol.hpp"
#include "pp/types.hpp"
#include "util/mapped_allocator.hpp"

namespace circles::kernel {

enum class TableKind {
  kDense,   // flat num_states^2 table, built eagerly
  kSparse,  // lazily-materialized hashed cache over reachable pairs
};

std::string to_string(TableKind kind);

struct CompileOptions {
  /// Largest ordered-pair count lowered to a dense table; above it the
  /// kernel switches to the sparse cache. The default is 2^22 entries
  /// (36 MiB of table). 0 forces the sparse kind at every size, the
  /// independent lowering the identity tests cross-check the dense table
  /// against.
  std::uint64_t max_dense_entries = 1ull << 22;

  /// Slot capacity of the sparse pair cache (rounded up to a power of two).
  /// 2^20 slots is 17 MiB and comfortably holds the reached-pair working
  /// set of every registered protocol at practical population sizes; a full
  /// cache degrades to per-call computation, never to wrong answers.
  std::uint64_t sparse_slots = 1ull << 20;

  /// Count sparse-cache hits (one relaxed fetch_add per probe that lands on
  /// a materialized entry). Off by default: the hit path is THE hot path of
  /// large-state-space runs, so the counter is opt-in telemetry — the
  /// BatchRunner enables it for specs with a metrics registry attached.
  bool count_sparse_hits = false;

  /// Preset for one-shot compiles (a kernel built for a single run, e.g.
  /// pp::Engine::run(const Protocol&)): a smaller dense budget so per-trial
  /// table builds stay microseconds, and a smaller cache.
  static CompileOptions one_shot() {
    CompileOptions options;
    options.max_dense_entries = 1ull << 16;
    options.sparse_slots = 1ull << 16;
    return options;
  }
};

/// What compile() built and what it cost. Surfaced per spec by the
/// BatchRunner so table-build time is never silently attributed to
/// simulation.
struct CompileStats {
  TableKind kind = TableKind::kDense;
  std::uint64_t states = 0;
  /// Dense: num_states^2 (all materialized). Sparse: slot capacity.
  std::uint64_t entries = 0;
  /// Table memory footprint (transition + flag arrays, adjacency, outputs).
  std::uint64_t bytes = 0;
  double build_ms = 0.0;
  /// Dense only: number of non-null ordered pairs (= adjacency size).
  std::uint64_t nonnull_pairs = 0;
  /// Sparse only: entries materialized so far / lookups that found the
  /// cache full (served by direct computation).
  std::uint64_t sparse_filled = 0;
  std::uint64_t sparse_overflow = 0;
  /// Sparse only, and only when CompileOptions::count_sparse_hits: lookups
  /// served from a materialized entry.
  std::uint64_t sparse_hits = 0;

  /// "dense 531441 entries, 4.6 MiB, built in 3.2 ms".
  std::string to_string() const;
};

class CompiledProtocol {
 public:
  /// Lowers `protocol`, which must outlive the kernel. Dense lowering costs
  /// one virtual transition() call per ordered state pair; sparse lowering
  /// is allocation only.
  explicit CompiledProtocol(const pp::Protocol& protocol,
                            CompileOptions options = {});

  CompiledProtocol(const CompiledProtocol&) = delete;
  CompiledProtocol& operator=(const CompiledProtocol&) = delete;

  const pp::Protocol& protocol() const { return *protocol_; }
  std::uint64_t num_states() const { return num_states_; }
  std::uint32_t num_colors() const { return num_colors_; }
  std::uint32_t num_output_symbols() const { return num_output_symbols_; }
  TableKind kind() const { return kind_; }

  /// Snapshot of the compile stats (sparse fill/overflow counters move as
  /// the cache materializes).
  CompileStats stats() const;

  pp::StateId input(pp::ColorId color) const { return inputs_[color]; }

  /// Output symbol of a state: one array load when the output table was
  /// built, a virtual call otherwise (never on a steady-state path).
  pp::OutputSymbol output(pp::StateId state) const {
    if (!outputs_.empty()) return outputs_[state];
    return protocol_->output(state);
  }

  /// The transition function, virtual-dispatch-free in steady state.
  pp::Transition transition(pp::StateId a, pp::StateId b) const {
    if (kind_ == TableKind::kDense) {
      return table_[static_cast<std::size_t>(a) * num_states_ + b];
    }
    return sparse_lookup(a, b).transition;
  }

  /// True iff transition(a, b) changes a state. One flag load (dense) or
  /// one probe (sparse); the exact-silence primitive of every engine.
  bool nonnull(pp::StateId a, pp::StateId b) const {
    if (kind_ == TableKind::kDense) {
      return (flags_[static_cast<std::size_t>(a) * num_states_ + b] &
              kNonNull) != 0;
    }
    return (sparse_lookup(a, b).flags & kNonNull) != 0;
  }

  /// True iff transition(a, b) changes some announced output symbol (the
  /// CRN convergence-clock predicate).
  bool output_changes(pp::StateId a, pp::StateId b) const {
    if (kind_ == TableKind::kDense) {
      return (flags_[static_cast<std::size_t>(a) * num_states_ + b] &
              kOutputDelta) != 0;
    }
    return (sparse_lookup(a, b).flags & kOutputDelta) != 0;
  }

  /// True when the per-state adjacency index was built: always for the dense
  /// kind, never for the sparse kind, which cannot know a state's partners
  /// without enumerating all of them.
  bool has_adjacency() const { return !adjacency_offsets_.empty(); }

  /// Responders t with transition(s, t) non-null, ascending. Requires
  /// has_adjacency().
  std::span<const pp::StateId> active_responders(pp::StateId s) const {
    const std::size_t begin = adjacency_offsets_[s];
    const std::size_t end = adjacency_offsets_[static_cast<std::size_t>(s) + 1];
    return {adjacency_partners_.data() + begin, end - begin};
  }

  /// Exact silence test for a configuration given as its present states
  /// with a count accessor: no ordered pair (requiring count >= 2 on the
  /// diagonal) is non-null. Counts is any callable StateId -> uint64.
  template <typename Counts>
  bool config_silent(std::span<const pp::StateId> present,
                     Counts&& counts) const {
    if (has_adjacency()) {
      for (const pp::StateId s : present) {
        if (counts(s) == 0) continue;
        for (const pp::StateId t : active_responders(s)) {
          const std::uint64_t c = counts(t);
          if (c == 0 || (s == t && c < 2)) continue;
          return false;
        }
      }
      return true;
    }
    for (const pp::StateId s : present) {
      if (counts(s) == 0) continue;
      for (const pp::StateId t : present) {
        const std::uint64_t c = counts(t);
        if (c == 0 || (s == t && c < 2)) continue;
        if (nonnull(s, t)) return false;
      }
    }
    return true;
  }

 private:
  static constexpr std::uint8_t kNonNull = 1;
  static constexpr std::uint8_t kOutputDelta = 2;

  struct SparseEntry {
    pp::Transition transition;
    std::uint8_t flags;
  };

  /// Sentinel keys for the sparse cache. Real keys are (a << 32) | b with
  /// a, b < num_states < 2^32 - 1, so neither sentinel is reachable.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::uint64_t kBusyKey = ~std::uint64_t{0} - 1;

  SparseEntry sparse_lookup(pp::StateId a, pp::StateId b) const;
  SparseEntry compute_entry(pp::StateId a, pp::StateId b) const;

  const pp::Protocol* protocol_;
  std::uint64_t num_states_;
  std::uint32_t num_colors_;
  std::uint32_t num_output_symbols_;
  TableKind kind_ = TableKind::kDense;
  double build_ms_ = 0.0;
  std::uint64_t nonnull_pairs_ = 0;

  std::vector<pp::StateId> inputs_;       // per color
  std::vector<pp::OutputSymbol> outputs_; // per state; empty if over budget

  // Dense kind. Page-mapped, so a batch that compiles and drops a large
  // kernel leaves malloc's heap (and the peak RSS) as it found it.
  util::MappedVector<pp::Transition> table_;
  util::MappedVector<std::uint8_t> flags_;
  util::MappedVector<std::size_t> adjacency_offsets_;  // CSR: num_states + 1
  util::MappedVector<pp::StateId> adjacency_partners_;

  // Sparse kind: open-addressing cache with linear probing. values_/vflags_
  // for a slot are written exclusively by the thread that claimed the slot's
  // key via CAS(kEmptyKey -> kBusyKey), then published by a release store of
  // the real key; readers acquire-load the key first, so the data race is
  // ordered. Racing readers that see kBusyKey simply compute the entry
  // directly that one time.
  std::uint64_t sparse_mask_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> keys_;
  std::unique_ptr<std::uint64_t[]> values_;  // packed (init << 32) | resp
  std::unique_ptr<std::uint8_t[]> vflags_;
  mutable std::atomic<std::uint64_t> sparse_filled_{0};
  mutable std::atomic<std::uint64_t> sparse_overflow_{0};
  bool count_sparse_hits_ = false;
  mutable std::atomic<std::uint64_t> sparse_hits_{0};
};

inline CompiledProtocol::SparseEntry CompiledProtocol::sparse_lookup(
    pp::StateId a, pp::StateId b) const {
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  // splitmix64 finalizer: full-avalanche, so linear probing stays short.
  std::uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;

  constexpr int kMaxProbes = 64;
  std::uint64_t idx = h & sparse_mask_;
  for (int probe = 0; probe < kMaxProbes; ++probe) {
    std::uint64_t slot = keys_[idx].load(std::memory_order_acquire);
    if (slot == key) {
      if (count_sparse_hits_) {
        sparse_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      const std::uint64_t packed = values_[idx];
      return {{static_cast<pp::StateId>(packed >> 32),
               static_cast<pp::StateId>(packed)},
              vflags_[idx]};
    }
    if (slot == kEmptyKey) {
      const SparseEntry entry = compute_entry(a, b);
      if (keys_[idx].compare_exchange_strong(slot, kBusyKey,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        values_[idx] =
            (static_cast<std::uint64_t>(entry.transition.initiator) << 32) |
            entry.transition.responder;
        vflags_[idx] = entry.flags;
        keys_[idx].store(key, std::memory_order_release);
        sparse_filled_.fetch_add(1, std::memory_order_relaxed);
      }
      // CAS winner or loser alike: the entry is computed, hand it out. A
      // loser leaves caching to whoever claimed the slot.
      return entry;
    }
    if (slot == kBusyKey) {
      // Mid-publication by another thread (possibly of this very pair);
      // don't wait on it — compute directly this once.
      return compute_entry(a, b);
    }
    idx = (idx + 1) & sparse_mask_;
  }
  sparse_overflow_.fetch_add(1, std::memory_order_relaxed);
  return compute_entry(a, b);
}

}  // namespace circles::kernel
