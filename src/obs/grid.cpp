#include "obs/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/cli.hpp"

namespace circles::obs {

using util::split_commas;

std::string GridSpec::to_string() const {
  if (!fractions.empty()) {
    std::string out = "frac:";
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      if (i) out += ',';
      out += util::format_double(fractions[i]);
    }
    return out;
  }
  const std::string head = spacing == Spacing::kLinear ? "linear" : "log";
  return head + ":" + std::to_string(points);
}

GridSpec GridSpec::parse(const std::string& text) {
  GridSpec spec;
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);
  try {
    if (head == "linear" || head == "log") {
      spec.spacing = head == "linear" ? Spacing::kLinear : Spacing::kLog;
      if (!arg.empty()) {
        // Full-consumption check: stoll would silently accept "1,024" as 1.
        std::size_t used = 0;
        const long long points = std::stoll(arg, &used);
        if (used != arg.size() || points < 1) {
          throw std::invalid_argument("grid needs an integer >= 1");
        }
        spec.points = static_cast<std::uint32_t>(points);
      }
      return spec;
    }
    if (head == "frac" && !arg.empty()) {
      for (const auto& part : split_commas(arg)) {
        std::size_t used = 0;
        const double f = std::stod(part, &used);
        if (used != part.size() || !(f > 0.0) || f > 1.0) {
          throw std::invalid_argument("fractions must lie in (0, 1]");
        }
        spec.fractions.push_back(f);
      }
      std::sort(spec.fractions.begin(), spec.fractions.end());
      return spec;
    }
  } catch (const std::invalid_argument&) {
    // unified error below (also catches the explicit throws above, which is
    // fine: the message names the full grammar)
  } catch (const std::out_of_range&) {
  }
  throw std::invalid_argument(
      "unknown sample grid '" + text +
      "' (expected linear:<points>, log:<points>, or frac:<f0,f1,...> with "
      "fractions in (0, 1])");
}

std::vector<std::uint64_t> interaction_grid(const GridSpec& spec,
                                            std::uint64_t horizon) {
  std::vector<std::uint64_t> grid;
  if (horizon == 0) return grid;

  const auto push = [&grid, horizon](double value) {
    const std::uint64_t v = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(value)), 1, horizon);
    if (grid.empty() || v > grid.back()) grid.push_back(v);
  };

  if (!spec.fractions.empty()) {
    // Already sorted ascending by parse(); sort defensively for specs built
    // in code.
    std::vector<double> fractions = spec.fractions;
    std::sort(fractions.begin(), fractions.end());
    for (const double f : fractions) {
      push(f * static_cast<double>(horizon));
    }
    return grid;
  }

  const std::uint64_t points = std::max<std::uint32_t>(spec.points, 1);
  if (spec.spacing == GridSpec::Spacing::kLinear) {
    for (std::uint64_t i = 1; i <= points; ++i) {
      push(static_cast<double>(horizon) * static_cast<double>(i) /
           static_cast<double>(points));
    }
  } else {
    const double log_h = std::log(static_cast<double>(horizon));
    for (std::uint64_t i = 1; i <= points; ++i) {
      push(std::exp(log_h * static_cast<double>(i) /
                    static_cast<double>(points)));
    }
  }
  // Both spacings are monotone and end exactly at the horizon; rounding can
  // only merge neighbours, which `push` already dropped.
  return grid;
}

std::vector<double> chemical_grid(const GridSpec& spec, double horizon) {
  std::vector<double> grid;
  if (!(horizon > 0.0)) return grid;

  const auto push = [&grid, horizon](double value) {
    const double v = std::min(value, horizon);
    if (v > 0.0 && (grid.empty() || v > grid.back())) grid.push_back(v);
  };

  if (!spec.fractions.empty()) {
    std::vector<double> fractions = spec.fractions;
    std::sort(fractions.begin(), fractions.end());
    for (const double f : fractions) push(f * horizon);
    return grid;
  }

  const std::uint64_t points = std::max<std::uint32_t>(spec.points, 1);
  if (spec.spacing == GridSpec::Spacing::kLinear) {
    for (std::uint64_t i = 1; i <= points; ++i) {
      push(horizon * static_cast<double>(i) / static_cast<double>(points));
    }
  } else {
    const double lo = std::log(horizon * 1e-6);
    const double hi = std::log(horizon);
    for (std::uint64_t i = 1; i <= points; ++i) {
      push(std::exp(lo + (hi - lo) * static_cast<double>(i) /
                             static_cast<double>(points)));
    }
  }
  return grid;
}

std::vector<double> envelope_grid(GridSpec::Spacing spacing,
                                  std::size_t points, double x_max) {
  std::vector<double> grid{0.0};
  if (!(x_max > 0.0) || points == 0) return grid;
  if (spacing == GridSpec::Spacing::kLinear) {
    for (std::size_t i = 1; i <= points; ++i) {
      grid.push_back(x_max * static_cast<double>(i) /
                     static_cast<double>(points));
    }
    return grid;
  }
  // Log spacing: geometric from min(1, x_max) up to x_max. Interaction axes
  // start at the first interaction; sub-1 chemical horizons collapse to the
  // endpoint.
  const double lo = std::log(std::min(1.0, x_max));
  const double hi = std::log(x_max);
  for (std::size_t i = 1; i <= points; ++i) {
    const double v =
        std::exp(lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(points));
    if (v > grid.back()) grid.push_back(v);
  }
  return grid;
}

}  // namespace circles::obs
