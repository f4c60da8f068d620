#include "fluid/drift_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "kernel/compiled_protocol.hpp"

namespace circles::fluid {

DriftTable::DriftTable(const kernel::CompiledProtocol& kernel,
                       std::uint64_t max_pair_lookups) {
  const pp::Protocol& protocol = kernel.protocol();
  const std::uint64_t num_states = protocol.num_states();
  index_.assign(static_cast<std::size_t>(num_states), -1);

  const auto add_state = [&](pp::StateId s) {
    if (index_[s] >= 0) return;
    index_[s] = static_cast<std::int32_t>(species_.size());
    species_.push_back(s);
  };
  for (pp::ColorId c = 0; c < protocol.num_colors(); ++c) {
    add_state(protocol.input(c));
  }

  const auto budget = [&]() {
    if (++pair_lookups_ <= max_pair_lookups) return;
    throw std::invalid_argument(
        "fluid drift table: the input-state closure of protocol '" +
        protocol.name() + "' exceeds the pair-enumeration budget (" +
        std::to_string(max_pair_lookups) +
        " transition lookups); the state space is too wide for the "
        "mean-field backend — use a dense backend instead");
  };

  // Fixpoint over the closure: each round enumerates exactly the ordered
  // pairs with at least one state discovered since the previous round.
  // States appended mid-round have index >= round_size and are picked up by
  // the next round, so every in-closure pair is visited exactly once.
  const bool adjacency = kernel.has_adjacency();
  std::size_t done = 0;  // pairs over species_[0..done) are processed
  while (done < species_.size()) {
    const std::size_t old_done = done;
    const std::size_t round_size = species_.size();
    done = round_size;
    for (std::size_t i = 0; i < round_size; ++i) {
      const pp::StateId a = species_[i];
      if (adjacency) {
        // CSR adjacency: only non-null responders of `a` are visited; keep
        // the ones already inside this round's closure snapshot.
        for (const pp::StateId b : kernel.active_responders(a)) {
          const std::int32_t j = b < num_states ? index_[b] : -1;
          if (j < 0 || static_cast<std::size_t>(j) >= round_size) continue;
          if (i < old_done && static_cast<std::size_t>(j) < old_done) continue;
          budget();
          const pp::Transition out = kernel.transition(a, b);
          add_state(out.initiator);
          add_state(out.responder);
          terms_.push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j),
                            static_cast<std::uint32_t>(index_[out.initiator]),
                            static_cast<std::uint32_t>(index_[out.responder])});
        }
        continue;
      }
      const std::size_t j_begin = i < old_done ? old_done : 0;
      for (std::size_t j = j_begin; j < round_size; ++j) {
        budget();
        const pp::StateId b = species_[j];
        const pp::Transition out = kernel.transition(a, b);
        if (out.initiator == a && out.responder == b) continue;  // null
        add_state(out.initiator);
        add_state(out.responder);
        terms_.push_back({static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j),
                          static_cast<std::uint32_t>(index_[out.initiator]),
                          static_cast<std::uint32_t>(index_[out.responder])});
      }
    }
  }

  // Canonicalize: species ascending by StateId, terms sorted by (a, b), and
  // row offsets over that order. The drift evaluation walks initiator rows
  // in species order and each row's terms in responder order, so this fixes
  // the floating-point summation order — trajectories are bitwise identical
  // whichever build path (CSR adjacency or per-pair kernel lookups)
  // discovered the closure.
  std::vector<std::uint32_t> remap(species_.size());
  std::vector<pp::StateId> sorted = species_;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    remap[static_cast<std::size_t>(index_[sorted[i]])] =
        static_cast<std::uint32_t>(i);
  }
  species_ = std::move(sorted);
  for (std::size_t i = 0; i < species_.size(); ++i) {
    index_[species_[i]] = static_cast<std::int32_t>(i);
  }
  for (DriftTerm& term : terms_) {
    term.a = remap[term.a];
    term.b = remap[term.b];
    term.a2 = remap[term.a2];
    term.b2 = remap[term.b2];
  }
  std::sort(terms_.begin(), terms_.end(),
            [](const DriftTerm& lhs, const DriftTerm& rhs) {
              return lhs.a != rhs.a ? lhs.a < rhs.a : lhs.b < rhs.b;
            });
  row_offsets_.assign(species_.size() + 1, 0);
  for (const DriftTerm& term : terms_) ++row_offsets_[term.a + 1];
  for (std::size_t a = 0; a < species_.size(); ++a) {
    row_offsets_[a + 1] += row_offsets_[a];
  }
}

}  // namespace circles::fluid
