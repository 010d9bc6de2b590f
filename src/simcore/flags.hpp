// Table-driven command-line flags for the tlsim and tlsreport front ends.
//
// A tool lists its flags as FlagSpec rows; Flags::parse splits arguments
// against that table and the typed getters turn values into numbers and
// enums with one set of error messages. Grammar:
//
//   --name value, --name=value  value flag; "--name value" takes the next
//                               token unless it starts with "--", so
//                               negative numbers ("-1") are values
//   --name                      switch; never takes a value
//   anything else               positional argument
//
// An unknown flag, a value flag without a value, a switch given "=value"
// and a bare "--" are errors. A repeated flag keeps its last value.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tls::sim {

/// One flag-table row. `value` is the placeholder shown in help ("N",
/// "PATH"); null marks a switch. `help` may span lines with '\n'.
struct FlagSpec {
  const char* name;  // without the leading "--"
  const char* value;
  const char* help;
};

/// Parsed arguments. Getters take flag names without "--".
struct Flags {
  std::vector<std::string> positional;
  /// (name, value) in command-line order; a switch reads "true".
  std::vector<std::pair<std::string, std::string>> given;

  /// Parses `args` against `table`; false with a message on any error.
  bool parse(const std::vector<std::string>& args,
             std::span<const FlagSpec> table, std::string* error);

  bool has(const std::string& name) const;
  /// Last value given for `name`, or `fallback` when absent.
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;

  /// Integer in [lo, hi]; `fallback` when absent or empty.
  bool integer(const std::string& name, long fallback, long lo, long hi,
               long* out, std::string* error) const;
  /// Real number >= lo; `fallback` when absent or empty.
  bool real(const std::string& name, double fallback, double lo,
            double* out, std::string* error) const;

  /// The value paired with the given text in `choices`; `fallback` if absent.
  template <typename E>
  bool choice(const std::string& name, E fallback,
              std::initializer_list<std::pair<const char*, E>> choices,
              E* out, std::string* error) const {
    *out = fallback;
    if (!has(name)) return true;
    std::string value = get(name);
    std::string texts;
    for (const auto& [text, choice_value] : choices) {
      if (value == text) {
        *out = choice_value;
        return true;
      }
      texts += (texts.empty() ? "" : "|") + std::string(text);
    }
    *error = "bad --" + name + " '" + value + "' (" + texts + ")";
    return false;
  }
};

/// Help lines for `table`: "  --name VALUE", padded to a fixed column,
/// then the row's help.
std::string flag_help(std::span<const FlagSpec> table);

}  // namespace tls::sim
