// Tiny flag parser shared by the experiment binaries.
//
// Supports `--name=value`, `--name value` and boolean `--name`. Unknown flags
// are an error so typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace circles::util {

/// Splits on ',', dropping empty segments ("a,,b" -> {"a", "b"}). The one
/// comma-splitting rule shared by the list flags, the obs grid grammar and
/// the sweep --trace parser.
std::vector<std::string> split_commas(const std::string& raw);

/// Shortest rendering that parses back to the exact double: "0.1" stays
/// "0.1" (plain %g), anything %g would round gets the full 17 digits. The
/// spec grammars (RunSpec, WorkloadSpec, obs grids) render real values
/// with it, so to_string() -> parse() recovers the bit-identical value.
std::string format_double(double value);

class Cli {
 public:
  /// Parses argv; exits with a message on malformed input.
  Cli(int argc, char** argv);

  /// Declares a flag with a default; returns the parsed or default value.
  /// Declaration doubles as the "known flag" registry for error checking.
  std::int64_t int_flag(const std::string& name, std::int64_t def,
                        const std::string& help);
  double double_flag(const std::string& name, double def,
                     const std::string& help);
  std::string string_flag(const std::string& name, std::string def,
                          const std::string& help);
  bool bool_flag(const std::string& name, bool def, const std::string& help);

  /// Repeated/list flags: comma-separated values (`--n=100,1000,10000`),
  /// used by experiment binaries to express sweep axes directly. `def` is
  /// the default rendered exactly as a user would type it.
  std::vector<std::int64_t> int_list_flag(const std::string& name,
                                          const std::string& def,
                                          const std::string& help);
  std::vector<std::string> string_list_flag(const std::string& name,
                                            const std::string& def,
                                            const std::string& help);
  /// Comma-separated doubles (`--sample-points=0.1,0.5,0.9`). Unlike the
  /// other list flags an empty default is legal and yields an empty vector,
  /// so optional axes (probe grids) can stay unset.
  std::vector<double> double_list_flag(const std::string& name,
                                       const std::string& def,
                                       const std::string& help);

  /// Call after all flags are declared: errors on unknown flags, handles
  /// --help by printing usage and exiting.
  void finish();

  const std::string& program() const { return program_; }

 private:
  struct HelpEntry {
    std::string name;
    std::string help;
    std::string def;
  };

  bool lookup(const std::string& name, std::string* value) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> seen_order_;
  std::vector<HelpEntry> help_;
  bool help_requested_ = false;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace circles::util
