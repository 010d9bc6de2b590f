#include "simcore/flags.hpp"

#include <algorithm>
#include <cstdlib>

namespace tls::sim {

namespace {

bool is_flag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

}  // namespace

bool Flags::parse(const std::vector<std::string>& args,
                  std::span<const FlagSpec> table, std::string* error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!is_flag(arg)) {
      positional.push_back(arg);
      continue;
    }
    std::size_t eq = arg.find('=');
    std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (name.empty()) {
      *error = "empty flag name in '" + arg + "'";
      return false;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& row : table) {
      if (name == row.name) spec = &row;
    }
    if (spec == nullptr) {
      std::string valid;
      for (const FlagSpec& row : table) {
        valid += (valid.empty() ? "--" : ", --") + std::string(row.name);
      }
      *error = "unknown flag --" + name + " (valid flags: " + valid + ")";
      return false;
    }
    if (spec->value == nullptr) {
      if (eq != std::string::npos) {
        *error = "--" + name + " is a switch and takes no value";
        return false;
      }
      given.emplace_back(name, "true");
    } else if (eq != std::string::npos) {
      given.emplace_back(name, arg.substr(eq + 1));
    } else if (i + 1 < args.size() && !is_flag(args[i + 1])) {
      given.emplace_back(name, args[++i]);
    } else {
      *error = "--" + name + " requires a value";
      return false;
    }
  }
  return true;
}

bool Flags::has(const std::string& name) const {
  for (const auto& [key, value] : given) {
    if (key == name) return true;
  }
  return false;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  std::string last = fallback;
  for (const auto& [key, value] : given) {
    if (key == name) last = value;
  }
  return last;
}

bool Flags::integer(const std::string& name, long fallback, long lo, long hi,
                    long* out, std::string* error) const {
  std::string value = get(name);
  if (value.empty()) {
    *out = fallback;
    return true;
  }
  char* end = nullptr;
  long parsed = std::strtol(value.c_str(), &end, 10);
  if (*end != '\0' || parsed < lo || parsed > hi) {
    *error = "bad value for --" + name + ": '" + value + "'";
    return false;
  }
  *out = parsed;
  return true;
}

bool Flags::real(const std::string& name, double fallback, double lo,
                 double* out, std::string* error) const {
  std::string value = get(name);
  if (value.empty()) {
    *out = fallback;
    return true;
  }
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  if (*end != '\0' || parsed < lo) {
    *error = "bad value for --" + name + ": '" + value + "'";
    return false;
  }
  *out = parsed;
  return true;
}

std::string flag_help(std::span<const FlagSpec> table) {
  constexpr std::size_t kColumn = 30;
  std::string text;
  for (const FlagSpec& row : table) {
    std::string line = "  --" + std::string(row.name);
    if (row.value != nullptr) line += " " + std::string(row.value);
    line.resize(std::max(line.size() + 2, kColumn), ' ');
    for (const char* c = row.help; *c != '\0'; ++c) {
      line += *c;
      if (*c == '\n') line.append(kColumn, ' ');
    }
    text += line + "\n";
  }
  return text;
}

}  // namespace tls::sim
