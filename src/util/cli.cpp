#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace circles::util {

namespace {
bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// std::stoll/std::stod over the whole of `raw`: trailing characters
/// ("5x", or "1e11" read as an integer) are an error, not a silent prefix.
std::int64_t parse_int(const std::string& raw) {
  std::size_t used = 0;
  const std::int64_t value = std::stoll(raw, &used);
  if (used != raw.size()) throw std::invalid_argument(raw);
  return value;
}

double parse_double(const std::string& raw) {
  std::size_t used = 0;
  const double value = std::stod(raw, &used);
  if (used != raw.size()) throw std::invalid_argument(raw);
  return value;
}
}  // namespace

Cli::Cli(int argc, char** argv) : program_(argc > 0 ? argv[0] : "prog") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!starts_with(arg, "--")) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      seen_order_.push_back(arg.substr(0, eq));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
      seen_order_.push_back(arg);
    } else {
      values_[arg] = "true";  // boolean flag
      seen_order_.push_back(arg);
    }
  }
}

bool Cli::lookup(const std::string& name, std::string* value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return false;
  consumed_[name] = true;
  *value = it->second;
  return true;
}

std::int64_t Cli::int_flag(const std::string& name, std::int64_t def,
                           const std::string& help) {
  help_.push_back({name, help, std::to_string(def)});
  std::string raw;
  if (!lookup(name, &raw)) return def;
  try {
    return parse_int(raw);
  } catch (const std::exception&) {
    std::fprintf(stderr, "flag --%s expects an integer, got '%s'\n",
                 name.c_str(), raw.c_str());
    std::exit(2);
  }
}

double Cli::double_flag(const std::string& name, double def,
                        const std::string& help) {
  help_.push_back({name, help, std::to_string(def)});
  std::string raw;
  if (!lookup(name, &raw)) return def;
  try {
    return parse_double(raw);
  } catch (const std::exception&) {
    std::fprintf(stderr, "flag --%s expects a number, got '%s'\n", name.c_str(),
                 raw.c_str());
    std::exit(2);
  }
}

std::string Cli::string_flag(const std::string& name, std::string def,
                             const std::string& help) {
  help_.push_back({name, help, def});
  std::string raw;
  if (!lookup(name, &raw)) return def;
  return raw;
}

bool Cli::bool_flag(const std::string& name, bool def,
                    const std::string& help) {
  help_.push_back({name, help, def ? "true" : "false"});
  std::string raw;
  if (!lookup(name, &raw)) return def;
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no") return false;
  std::fprintf(stderr, "flag --%s expects a boolean, got '%s'\n", name.c_str(),
               raw.c_str());
  std::exit(2);
}

std::vector<std::string> split_commas(const std::string& raw) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const auto comma = raw.find(',', start);
    const auto end = comma == std::string::npos ? raw.size() : comma;
    if (end > start) parts.push_back(raw.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  if (std::strtod(buffer, nullptr) == value) return buffer;
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::vector<std::int64_t> Cli::int_list_flag(const std::string& name,
                                             const std::string& def,
                                             const std::string& help) {
  help_.push_back({name, help, def});
  std::string raw;
  if (!lookup(name, &raw)) raw = def;
  std::vector<std::int64_t> values;
  for (const auto& part : split_commas(raw)) {
    try {
      values.push_back(parse_int(part));
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "flag --%s expects comma-separated integers, got '%s'\n",
                   name.c_str(), raw.c_str());
      std::exit(2);
    }
  }
  if (values.empty()) {
    std::fprintf(stderr, "flag --%s expects at least one value\n",
                 name.c_str());
    std::exit(2);
  }
  return values;
}

std::vector<double> Cli::double_list_flag(const std::string& name,
                                          const std::string& def,
                                          const std::string& help) {
  help_.push_back({name, help, def.empty() ? "(unset)" : def});
  std::string raw;
  if (!lookup(name, &raw)) raw = def;
  std::vector<double> values;
  for (const auto& part : split_commas(raw)) {
    try {
      values.push_back(parse_double(part));
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "flag --%s expects comma-separated numbers, got '%s'\n",
                   name.c_str(), raw.c_str());
      std::exit(2);
    }
  }
  return values;
}

std::vector<std::string> Cli::string_list_flag(const std::string& name,
                                               const std::string& def,
                                               const std::string& help) {
  help_.push_back({name, help, def});
  std::string raw;
  if (!lookup(name, &raw)) raw = def;
  auto values = split_commas(raw);
  if (values.empty()) {
    std::fprintf(stderr, "flag --%s expects at least one value\n",
                 name.c_str());
    std::exit(2);
  }
  return values;
}

void Cli::finish() {
  if (help_requested_) {
    std::printf("usage: %s [flags]\n", program_.c_str());
    for (const auto& entry : help_) {
      std::printf("  --%-20s %s (default: %s)\n", entry.name.c_str(),
                  entry.help.c_str(), entry.def.c_str());
    }
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!consumed_.count(name)) {
      std::fprintf(stderr, "unknown flag: --%s (see --help)\n", name.c_str());
      std::exit(2);
    }
  }
}

}  // namespace circles::util
