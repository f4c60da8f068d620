// DriftTable: the protocol's interaction stoichiometry, compiled once.
//
// The mean-field ODE of a population protocol needs, for every ordered state
// pair (a, b) with a non-null transition (a, b) -> (a', b'), the reaction
// "remove one a and one b, add one a' and one b'" with rate x_a * x_b. This
// module extracts exactly that list from a protocol's compiled kernel — via
// its CSR adjacency when the kernel built one, its transition lookups
// otherwise — restricted to the closure of the input states under
// transitions. Every reachable run of the protocol starts in input states,
// so the closure is a complete species set, and it is usually far smaller
// than num_states (the circles protocol has k^3 states but only the
// input-reachable slice ever holds mass).
//
// States are remapped onto a compact [0, num_species) indexing so the ODE
// state vector is dense regardless of how sparse the closure is inside the
// StateId range. The species list and the term list are canonically sorted,
// so the table — and every trajectory integrated over it — is identical
// whether it was built from a dense kernel or a sparse one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pp/types.hpp"

namespace circles::kernel {
class CompiledProtocol;
}

namespace circles::fluid {

/// One non-null ordered interaction (a, b) -> (a2, b2) over the compact
/// species indexing: rate x_a * x_b, stoichiometry -e_a - e_b + e_a2 + e_b2
/// (initiator deltas land in the initiator's urn, responder deltas in the
/// responder's).
struct DriftTerm {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t a2 = 0;
  std::uint32_t b2 = 0;

  bool operator==(const DriftTerm&) const = default;
};

class DriftTable {
 public:
  /// Compiles the closure + term list of the kernel's protocol. Throws
  /// std::invalid_argument when the closure needs more than
  /// `max_pair_lookups` transition lookups (quadratic in the closure size —
  /// the guard that keeps very wide protocols from silently allocating
  /// gigabytes of terms).
  DriftTable(const kernel::CompiledProtocol& kernel,
             std::uint64_t max_pair_lookups);

  /// Closure states, ascending by StateId; compact index i <-> species()[i].
  std::span<const pp::StateId> species() const { return species_; }
  std::size_t num_species() const { return species_.size(); }

  /// Compact index of a state, or -1 when the state is outside the closure
  /// (a configuration holding mass there did not start from input states).
  std::int32_t index_of(pp::StateId state) const { return index_[state]; }

  /// Non-null reactions, sorted by (a, b); there is at most one term per
  /// ordered pair. The drift evaluation walks them row by row (all terms of
  /// one initiator a, responders ascending, then the next a), which fixes
  /// its floating-point summation order.
  std::span<const DriftTerm> terms() const { return terms_; }

  /// CSR offsets of the initiator rows, num_species() + 1 entries: the terms
  /// with initiator a are terms()[row_offsets()[a], row_offsets()[a + 1]),
  /// empty for a species with no non-null pair as initiator. Loops that
  /// walk rows skip every term of an initiator that holds no mass.
  std::span<const std::uint32_t> row_offsets() const { return row_offsets_; }

  /// Transition lookups spent compiling (closure enumeration cost).
  std::uint64_t pair_lookups() const { return pair_lookups_; }

 private:
  std::vector<pp::StateId> species_;
  std::vector<std::int32_t> index_;  // sized num_states, -1 outside closure
  std::vector<DriftTerm> terms_;
  std::vector<std::uint32_t> row_offsets_;  // num_species + 1
  std::uint64_t pair_lookups_ = 0;
};

}  // namespace circles::fluid
