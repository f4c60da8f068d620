// Bra-kets and their weights (paper §2).
//
// An agent's working memory is a bra-ket ⟨bra|ket⟩ of colors. Its *weight* is
//   w(⟨i|j⟩) = k          if i == j   (diagonal; maximal energy)
//              (j−i) mod k otherwise  (cyclic distance from bra to ket)
// Ket exchanges that strictly decrease the minimum weight of the interacting
// pair are the protocol's only moves — "energy minimization".
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "pp/types.hpp"

namespace circles::core {

using pp::ColorId;

struct BraKet {
  ColorId bra;
  ColorId ket;

  bool diagonal() const { return bra == ket; }

  auto operator<=>(const BraKet&) const = default;
};

/// w(⟨i|j⟩) for the color universe [0, k). Returns values in [1, k]:
/// diagonals weigh k, off-diagonals weigh the cyclic gap (j − i) mod k >= 1.
inline std::uint32_t weight(BraKet braket, std::uint32_t k) {
  if (braket.bra == braket.ket) return k;
  // Both colors live in [0, k), so add k before subtracting to stay unsigned.
  return (braket.ket + k - braket.bra) % k;
}

/// The energy-minimization rule of §2: would swapping the two kets strictly
/// decrease the minimum of the two weights? Shared by Circles and every
/// extension layer so the exchange semantics cannot drift apart.
inline bool exchange_decreases_min(BraKet a, BraKet b, std::uint32_t k) {
  const std::uint32_t before = weight(a, k) < weight(b, k) ? weight(a, k) : weight(b, k);
  const std::uint32_t wa = weight({a.bra, b.ket}, k);
  const std::uint32_t wb = weight({b.bra, a.ket}, k);
  const std::uint32_t after = wa < wb ? wa : wb;
  return after < before;
}

inline std::string to_string(BraKet braket) {
  // Appended piece by piece: GCC 12 flags `"<" + std::string&&` with a
  // false -Wrestrict.
  std::string out = "<";
  out += std::to_string(braket.bra);
  out += '|';
  out += std::to_string(braket.ket);
  out += '>';
  return out;
}

inline std::ostream& operator<<(std::ostream& os, BraKet braket) {
  return os << to_string(braket);
}

}  // namespace circles::core
