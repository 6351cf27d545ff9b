#include "support/cli.hpp"

#include <cstdlib>
#include <limits>

#include "support/assert.hpp"
#include "support/parse.hpp"

namespace arl::support {

Args::Args(int argc, const char* const* argv) {
  ARL_EXPECTS(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_.emplace_back(arg.substr(2), "");
      } else {
        flags_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

std::optional<std::string> Args::find(const std::string& name) const {
  for (const auto& [flag, value] : flags_) {
    if (flag == name) {
      return value;
    }
  }
  return std::nullopt;
}

bool Args::has(const std::string& name) const { return find(name).has_value(); }

std::string Args::get_string(const std::string& name, const std::string& fallback) const {
  const auto value = find(name);
  return value ? *value : fallback;
}

std::vector<std::string> Args::get_strings(const std::string& name) const {
  std::vector<std::string> values;
  for (const auto& [flag, value] : flags_) {
    if (flag == name) {
      values.push_back(value);
    }
  }
  return values;
}

std::int64_t Args::get_int(const std::string& name, std::int64_t fallback) const {
  const auto value = find(name);
  if (!value) {
    return fallback;
  }
  return static_cast<std::int64_t>(
      parse_integer(*value, "--" + name, std::numeric_limits<std::int64_t>::max()));
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto value = find(name);
  if (!value) {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  ARL_EXPECTS(end != value->c_str() && *end == '\0', "malformed double for --" + name);
  return parsed;
}

}  // namespace arl::support
