#include "pp/protocol.hpp"

namespace circles::pp {

// Names are appended piece by piece: GCC 12 flags `"s" + std::string&&`
// with a false -Wrestrict.
std::string Protocol::state_name(StateId state) const {
  std::string name = "s";
  name += std::to_string(state);
  return name;
}

std::string Protocol::output_name(OutputSymbol symbol) const {
  std::string name = symbol < num_colors() ? "c" : "sym";
  name += std::to_string(symbol);
  return name;
}

}  // namespace circles::pp
