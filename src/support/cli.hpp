#pragma once

/// \file cli.hpp
/// Minimal command-line flag parser for the example and benchmark binaries.
///
/// Accepts `--name=value` and bare `--name` flags; everything else is kept as
/// a positional argument.  Typed getters fall back to a default when the flag
/// is absent and throw ContractViolation on malformed values, so misuse fails
/// loudly instead of silently running the wrong experiment.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace arl::support {

/// Parsed command line.
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// True when `--name` or `--name=value` was given.
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of `--name=value`, or `fallback` when absent.
  [[nodiscard]] std::string get_string(const std::string& name, const std::string& fallback) const;

  /// Every value of a repeatable `--name=value` flag, in command-line order
  /// (empty when the flag was never given).
  [[nodiscard]] std::vector<std::string> get_strings(const std::string& name) const;

  /// Integer value of `--name=value`, or `fallback` when absent.  The value
  /// is digits only (support::parse_integer: no sign, space or base prefix)
  /// and at most the int64 maximum; anything else throws
  /// support::ContractViolation naming the flag.  Each caller checks its
  /// flag's own range.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// Double value of `--name=value`, or `fallback` when absent.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  [[nodiscard]] std::optional<std::string> find(const std::string& name) const;

  std::string program_;
  std::vector<std::pair<std::string, std::string>> flags_;  // name -> raw value ("" for bare)
  std::vector<std::string> positional_;
};

}  // namespace arl::support
