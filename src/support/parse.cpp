#include "support/parse.hpp"

#include <sstream>

namespace arl::support {

void require(bool ok, const std::string& message) {
  if (!ok) {
    throw ContractViolation(message);
  }
}

SpecText split_spec(std::string_view text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    return {text, std::nullopt};
  }
  return {text.substr(0, colon), text.substr(colon + 1)};
}

std::vector<std::string_view> split(std::string_view text, char separator) {
  std::vector<std::string_view> fields;
  for (;;) {
    const std::size_t end = text.find(separator);
    fields.push_back(text.substr(0, end));
    if (end == std::string_view::npos) {
      return fields;
    }
    text.remove_prefix(end + 1);
  }
}

std::vector<std::pair<std::string_view, std::string_view>> parse_key_values(
    std::string_view params, const std::string& at) {
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  for (const std::string_view param : split(params, ',')) {
    const std::size_t equals = param.find('=');
    if (equals == 0 || equals == std::string_view::npos || equals + 1 == param.size()) {
      throw ContractViolation(at + "malformed parameter '" + std::string(param) +
                              "' (want key=value)");
    }
    const std::string_view key = param.substr(0, equals);
    for (const auto& earlier : pairs) {
      if (earlier.first == key) {
        throw ContractViolation(at + "duplicate parameter '" + std::string(key) + "'");
      }
    }
    pairs.emplace_back(key, param.substr(equals + 1));
  }
  return pairs;
}

std::uint64_t parse_integer(std::string_view text, const std::string& what, std::uint64_t max,
                            std::uint64_t min) {
  const std::optional<std::uint64_t> value = parse_decimal_u64(text, max);
  if (!value || *value < min) {
    throw ContractViolation(what + " must be a decimal integer in [" + std::to_string(min) +
                            ", " + std::to_string(max) + "] (got '" + std::string(text) + "')");
  }
  return *value;
}

std::optional<double> parse_canonical_double(std::string_view text) {
  if (!is_canonical_number(text)) {
    return std::nullopt;
  }
  try {
    return std::stod(std::string(text));
  } catch (const std::exception&) {  // out_of_range on extreme exponents
    return std::nullopt;
  }
}

double parse_probability(std::string_view text, const std::string& what) {
  const std::optional<double> value = parse_canonical_double(text);
  if (!value) {
    throw ContractViolation(what + " must be a decimal number (got '" + std::string(text) + "')");
  }
  return *value;
}

bool parse_flag(std::string_view text, const std::string& what) {
  if (text != "0" && text != "1") {
    throw ContractViolation(what + " must be 0 or 1 (got '" + std::string(text) + "')");
  }
  return text == "1";
}

std::string shortest_double(double value) {
  for (int precision = 1; precision <= std::numeric_limits<double>::max_digits10; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    if (std::stod(out.str()) == value) {
      return out.str();
    }
  }
  return std::to_string(value);
}

std::string hex64(std::uint64_t value) {
  // Called per job line when a shard report is written: no stream setup.
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace arl::support
