#include "kernel/compiled_protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/check.hpp"

namespace circles::kernel {

namespace {

/// The per-state output array is precomputed up to this many states (4
/// bytes per state); larger protocols keep virtual output() calls, which
/// sit on no steady-state path.
constexpr std::uint64_t kMaxOutputStates = 1ull << 24;

std::uint64_t round_up_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::string format_bytes(std::uint64_t bytes) {
  char buffer[32];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buffer, sizeof(buffer), "%.1f MiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f KiB",
                  static_cast<double>(bytes) / (1ull << 10));
  }
  return buffer;
}

}  // namespace

std::string to_string(TableKind kind) {
  switch (kind) {
    case TableKind::kDense:
      return "dense";
    case TableKind::kSparse:
      return "sparse";
  }
  return "?";
}

std::string CompileStats::to_string() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%s %llu entries, %s, built in %.2f ms",
                kernel::to_string(kind).c_str(),
                static_cast<unsigned long long>(entries),
                format_bytes(bytes).c_str(), build_ms);
  std::string out = buffer;
  if (kind == TableKind::kSparse) {
    std::snprintf(buffer, sizeof(buffer), " (%llu materialized)",
                  static_cast<unsigned long long>(sparse_filled));
    out += buffer;
  }
  return out;
}

CompiledProtocol::CompiledProtocol(const pp::Protocol& protocol,
                                   CompileOptions options)
    : protocol_(&protocol),
      num_states_(protocol.num_states()),
      num_colors_(protocol.num_colors()),
      num_output_symbols_(protocol.num_output_symbols()) {
  CIRCLES_CHECK_MSG(num_states_ >= 1, "protocol needs at least one state");
  // Pair keys pack two StateIds into 64 bits with two sentinel values at the
  // top; StateId is 32-bit so this only excludes the degenerate maximum.
  CIRCLES_CHECK_MSG(num_states_ < (1ull << 32) - 1,
                    "kernel supports at most 2^32 - 2 states");
  const auto start = std::chrono::steady_clock::now();

  inputs_.resize(num_colors_);
  for (pp::ColorId c = 0; c < num_colors_; ++c) {
    inputs_[c] = protocol.input(c);
  }
  if (num_states_ <= kMaxOutputStates) {
    outputs_.resize(num_states_);
    for (std::uint64_t s = 0; s < num_states_; ++s) {
      outputs_[s] = protocol.output(static_cast<pp::StateId>(s));
    }
  }

  if (num_states_ <= options.max_dense_entries / num_states_) {
    kind_ = TableKind::kDense;
    const std::size_t entries = static_cast<std::size_t>(num_states_) *
                                static_cast<std::size_t>(num_states_);
    table_.resize(entries);
    flags_.resize(entries);
    std::vector<std::uint32_t> degree(num_states_, 0);
    for (std::uint64_t a = 0; a < num_states_; ++a) {
      for (std::uint64_t b = 0; b < num_states_; ++b) {
        const auto sa = static_cast<pp::StateId>(a);
        const auto sb = static_cast<pp::StateId>(b);
        const SparseEntry entry = compute_entry(sa, sb);
        const std::size_t at = static_cast<std::size_t>(a) * num_states_ + b;
        table_[at] = entry.transition;
        flags_[at] = entry.flags;
        if (entry.flags & kNonNull) {
          nonnull_pairs_ += 1;
          degree[a] += 1;
        }
      }
    }
    adjacency_offsets_.resize(num_states_ + 1, 0);
    for (std::uint64_t s = 0; s < num_states_; ++s) {
      adjacency_offsets_[s + 1] = adjacency_offsets_[s] + degree[s];
    }
    adjacency_partners_.resize(nonnull_pairs_);
    std::vector<std::size_t> cursor(adjacency_offsets_.begin(),
                                    adjacency_offsets_.end() - 1);
    for (std::uint64_t a = 0; a < num_states_; ++a) {
      const std::size_t row = static_cast<std::size_t>(a) * num_states_;
      for (std::uint64_t b = 0; b < num_states_; ++b) {
        if (flags_[row + b] & kNonNull) {
          adjacency_partners_[cursor[a]++] = static_cast<pp::StateId>(b);
        }
      }
    }
  } else {
    kind_ = TableKind::kSparse;
    count_sparse_hits_ = options.count_sparse_hits;
    const std::uint64_t slots =
        round_up_pow2(std::max<std::uint64_t>(options.sparse_slots, 1024));
    sparse_mask_ = slots - 1;
    keys_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    values_ = std::make_unique<std::uint64_t[]>(slots);
    vflags_ = std::make_unique<std::uint8_t[]>(slots);
    for (std::uint64_t i = 0; i < slots; ++i) {
      keys_[i].store(kEmptyKey, std::memory_order_relaxed);
    }
  }

  build_ms_ = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
}

CompiledProtocol::SparseEntry CompiledProtocol::compute_entry(
    pp::StateId a, pp::StateId b) const {
  const pp::Transition tr = protocol_->transition(a, b);
  std::uint8_t flags = 0;
  if (tr.initiator != a || tr.responder != b) {
    flags |= kNonNull;
    if (output(tr.initiator) != output(a) ||
        output(tr.responder) != output(b)) {
      flags |= kOutputDelta;
    }
  }
  return {tr, flags};
}

CompileStats CompiledProtocol::stats() const {
  CompileStats stats;
  stats.kind = kind_;
  stats.states = num_states_;
  stats.build_ms = build_ms_;
  stats.nonnull_pairs = nonnull_pairs_;
  if (kind_ == TableKind::kDense) {
    stats.entries = static_cast<std::uint64_t>(table_.size());
    stats.bytes = table_.size() * sizeof(pp::Transition) + flags_.size() +
                  adjacency_offsets_.size() * sizeof(std::size_t) +
                  adjacency_partners_.size() * sizeof(pp::StateId);
  } else {
    stats.entries = sparse_mask_ + 1;
    stats.bytes = (sparse_mask_ + 1) *
                  (sizeof(std::atomic<std::uint64_t>) +
                   sizeof(std::uint64_t) + sizeof(std::uint8_t));
    stats.sparse_filled = sparse_filled_.load(std::memory_order_relaxed);
    stats.sparse_overflow = sparse_overflow_.load(std::memory_order_relaxed);
    stats.sparse_hits = sparse_hits_.load(std::memory_order_relaxed);
  }
  stats.bytes += outputs_.size() * sizeof(pp::OutputSymbol) +
                 inputs_.size() * sizeof(pp::StateId);
  return stats;
}

}  // namespace circles::kernel
