// Tiny command-line flag parser shared by the example and bench binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` forms plus
// `--help` text generation. Deliberately minimal: no subcommands, no
// positional-argument schemas beyond a trailing list.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace flsa {

/// Declarative flag set: register flags with defaults, then parse argv.
class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Registers flags. `help` is shown by print_help().
  void add_flag(const std::string& name, bool default_value,
                const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Parses argv. Returns false (after printing) when --help or --version
  /// was given (every tool thus identifies its build via --version).
  /// Throws std::invalid_argument on unknown flags or malformed values.
  bool parse(int argc, const char* const* argv);

  bool get_flag(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// True when int flag `name` lies in [lo, hi]. Otherwise prints
  /// "error: --name must be between lo and hi (got v)" to stderr and
  /// returns false, so a tool can exit 2 before a negative value wraps
  /// into a huge unsigned field.
  bool int_in_range(const std::string& name, std::int64_t lo,
                    std::int64_t hi) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// Arguments not starting with `--`, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  void print_help(std::ostream& os) const;

 private:
  enum class Kind { kBool, kInt, kDouble, kString };
  struct Entry {
    Kind kind;
    std::string help;
    bool bool_value = false;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    std::string default_repr;
  };

  const Entry& lookup(const std::string& name, Kind kind) const;
  Entry& lookup(const std::string& name, Kind kind);

  std::string description_;
  std::string program_name_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace flsa
