#include "extensions/ordering.hpp"

#include "util/check.hpp"

namespace circles::ext {

OrderingProtocol::OrderingProtocol(std::uint32_t k) : k_(k) {
  CIRCLES_CHECK_MSG(k >= 1, "ordering needs at least one color");
  CIRCLES_CHECK_MSG(k <= 32768, "2k^2 state space would overflow StateId");
}

OrderingProtocol::Fields OrderingProtocol::decode(pp::StateId state) const {
  CIRCLES_DCHECK(state < num_states());
  Fields f;
  f.label = state % k_;
  state /= k_;
  f.leader = (state & 1) != 0;
  f.color = state >> 1;
  return f;
}

pp::StateId OrderingProtocol::encode(const Fields& f) const {
  CIRCLES_DCHECK(f.color < k_ && f.label < k_);
  return ((f.color << 1) | (f.leader ? 1u : 0u)) * k_ + f.label;
}

pp::StateId OrderingProtocol::input(pp::ColorId color) const {
  CIRCLES_DCHECK(color < k_);
  // The unordered model forbids using the color's numeric value, so every
  // agent starts as a leader with label 0.
  return encode({color, true, 0});
}

pp::OutputSymbol OrderingProtocol::output(pp::StateId state) const {
  return decode(state).label;
}

pp::Transition OrderingProtocol::transition(pp::StateId initiator,
                                            pp::StateId responder) const {
  Fields a = decode(initiator);
  Fields b = decode(responder);

  if (a.color == b.color) {
    if (a.leader && b.leader) {
      // Interaction asymmetry breaks the tie: the responder is demoted.
      b.leader = false;
      b.label = a.label;
    } else if (a.leader && !b.leader) {
      b.label = a.label;
    } else if (!a.leader && b.leader) {
      a.label = b.label;
    }
    // Two followers: null.
  } else if (a.leader && b.leader && a.label == b.label) {
    b.label = (b.label + 1) % k_;
  }

  return {encode(a), encode(b)};
}

std::string OrderingProtocol::state_name(pp::StateId state) const {
  const Fields f = decode(state);
  std::string out = "c";
  out += std::to_string(f.color);
  out += f.leader ? "L" : "f";
  out += std::to_string(f.label);
  return out;
}

}  // namespace circles::ext
