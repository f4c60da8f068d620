#include "extensions/tie_report.hpp"

#include <utility>

#include "util/check.hpp"

namespace circles::ext {

TieReportProtocol::TieReportProtocol(std::uint32_t k) : k_(k) {
  CIRCLES_CHECK_MSG(k >= 1, "TieReport needs at least one color");
  CIRCLES_CHECK_MSG(k <= 812, "2k^2(k+1) state space would overflow StateId");
}

TieReportProtocol::Fields TieReportProtocol::decode(pp::StateId state) const {
  CIRCLES_DCHECK(state < num_states());
  Fields f;
  f.retractor = (state & 1) != 0;
  state >>= 1;
  f.out = state % (k_ + 1);
  state /= (k_ + 1);
  f.braket.ket = state % k_;
  f.braket.bra = state / k_;
  return f;
}

pp::StateId TieReportProtocol::encode(const Fields& f) const {
  CIRCLES_DCHECK(f.braket.bra < k_ && f.braket.ket < k_ && f.out <= k_);
  return (((f.braket.bra * k_ + f.braket.ket) * (k_ + 1) + f.out) << 1) |
         (f.retractor ? 1u : 0u);
}

pp::StateId TieReportProtocol::input(pp::ColorId color) const {
  CIRCLES_DCHECK(color < k_);
  return encode({{color, color}, color, false});
}

pp::OutputSymbol TieReportProtocol::output(pp::StateId state) const {
  return decode(state).out;
}

pp::Transition TieReportProtocol::transition(pp::StateId initiator,
                                             pp::StateId responder) const {
  Fields a = decode(initiator);
  Fields b = decode(responder);

  // (1) The Circles exchange rule, verbatim.
  const bool a_was_diagonal = a.braket.diagonal();
  const bool b_was_diagonal = b.braket.diagonal();
  if (core::exchange_decreases_min(a.braket, b.braket, k_)) {
    std::swap(a.braket.ket, b.braket.ket);
  }

  // (2) Diagonal destruction turns the destroyed agent into a retractor.
  if (a_was_diagonal && !a.braket.diagonal()) a.retractor = true;
  if (b_was_diagonal && !b.braket.diagonal()) b.retractor = true;

  // (3) A diagonal agent broadcasts its color and clears retractor bits.
  //     (A destruction never leaves a diagonal on either side — see
  //     DESIGN.md §5.2 — so (2) and (3) cannot both fire.)
  if (a.braket.diagonal() || b.braket.diagonal()) {
    const pp::ColorId winner =
        a.braket.diagonal() ? a.braket.bra : b.braket.bra;
    a.out = b.out = winner;
    a.retractor = b.retractor = false;
  } else if (a.retractor || b.retractor) {
    // (4) A retractor spreads doubt — but not the retractor bit itself.
    a.out = b.out = tie_symbol();
  }

  return {encode(a), encode(b)};
}

std::string TieReportProtocol::state_name(pp::StateId state) const {
  const Fields f = decode(state);
  std::string out = core::to_string(f.braket) + ":";
  out += f.out == tie_symbol() ? "TIE" : std::to_string(f.out);
  if (f.retractor) out += "!R";
  return out;
}

std::string TieReportProtocol::output_name(pp::OutputSymbol symbol) const {
  if (symbol == tie_symbol()) return "TIE";
  std::string name = "c";
  name += std::to_string(symbol);
  return name;
}

}  // namespace circles::ext
