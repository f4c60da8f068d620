#include "extensions/unordered_circles.hpp"

#include <utility>

#include "util/check.hpp"

namespace circles::ext {

UnorderedCirclesProtocol::UnorderedCirclesProtocol(std::uint32_t k) : k_(k) {
  CIRCLES_CHECK_MSG(k >= 1, "UnorderedCircles needs at least one color");
  CIRCLES_CHECK_MSG(k <= 215, "2k^4 state space would overflow StateId");
}

UnorderedCirclesProtocol::Fields UnorderedCirclesProtocol::decode(
    pp::StateId state) const {
  CIRCLES_DCHECK(state < num_states());
  Fields f;
  f.out = state % k_;
  state /= k_;
  f.ket = state % k_;
  state /= k_;
  f.label = state % k_;
  state /= k_;
  f.leader = (state & 1) != 0;
  f.color = state >> 1;
  return f;
}

pp::StateId UnorderedCirclesProtocol::encode(const Fields& f) const {
  CIRCLES_DCHECK(f.color < k_ && f.label < k_ && f.ket < k_ && f.out < k_);
  pp::StateId s = (f.color << 1) | (f.leader ? 1u : 0u);
  s = s * k_ + f.label;
  s = s * k_ + f.ket;
  s = s * k_ + f.out;
  return s;
}

pp::StateId UnorderedCirclesProtocol::input(pp::ColorId color) const {
  CIRCLES_DCHECK(color < k_);
  // Leader with label 0, Circles layer started on ⟨0|0⟩, believing itself.
  return encode({color, true, 0, 0, color});
}

pp::OutputSymbol UnorderedCirclesProtocol::output(pp::StateId state) const {
  return decode(state).out;
}

pp::Transition UnorderedCirclesProtocol::transition(
    pp::StateId initiator, pp::StateId responder) const {
  Fields a = decode(initiator);
  Fields b = decode(responder);

  // (1) Ordering layer (identical rules to OrderingProtocol).
  const std::uint32_t a_label_before = a.label;
  const std::uint32_t b_label_before = b.label;
  if (a.color == b.color) {
    if (a.leader && b.leader) {
      b.leader = false;
      b.label = a.label;
    } else if (a.leader && !b.leader) {
      b.label = a.label;
    } else if (!a.leader && b.leader) {
      a.label = b.label;
    }
  } else if (a.leader && b.leader && a.label == b.label) {
    b.label = (b.label + 1) % k_;
  }

  // (2) Restart the Circles layer of any agent whose bra just moved.
  if (a.label != a_label_before) {
    a.ket = a.label;
    a.out = a.color;
  }
  if (b.label != b_label_before) {
    b.ket = b.label;
    b.out = b.color;
  }

  // (3) Circles exchange on (label | ket) bra-kets.
  core::BraKet bk_a = braket_of_fields(a);
  core::BraKet bk_b = braket_of_fields(b);
  if (core::exchange_decreases_min(bk_a, bk_b, k_)) {
    std::swap(a.ket, b.ket);
    bk_a = braket_of_fields(a);
    bk_b = braket_of_fields(b);
  }

  // (4) A diagonal agent broadcasts its own color (its bra is its color's
  //     label, so a diagonal is a representative of that color).
  if (bk_a.diagonal()) {
    a.out = b.out = a.color;
  } else if (bk_b.diagonal()) {
    a.out = b.out = b.color;
  }

  return {encode(a), encode(b)};
}

std::string UnorderedCirclesProtocol::state_name(pp::StateId state) const {
  const Fields f = decode(state);
  std::string out = "c";
  out += std::to_string(f.color);
  out += f.leader ? "L" : "f";
  out += "<";
  out += std::to_string(f.label);
  out += "|";
  out += std::to_string(f.ket);
  out += ">:";
  out += std::to_string(f.out);
  return out;
}

}  // namespace circles::ext
