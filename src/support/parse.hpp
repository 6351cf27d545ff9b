#pragma once

/// \file parse.hpp
/// The grammar the text surfaces share, so their parsers cannot drift apart
/// on what a number or a spec looks like: the protocol, workload and fault
/// registries (specs spelled `kind[:params]`), the shard-report wire format
/// (dist/report_io.cpp) and the sweep-service protocol
/// (serve/serve_proto.cpp), plus the 16-hex-digit spelling the shard wire
/// and the artifact store share.  A new registry or axis is a kind table
/// and a switch over these helpers, not another parser.
///
/// `TokenCursor` serves the artifact text formats (config::to_text,
/// classification_to_text, schedule_to_text), whose hot lines carry
/// thousands of numeric tokens — an adjacency list, a per-node class
/// vector, a label history per node.  One istringstream extraction per
/// token costs a locale-aware stream setup per line and a virtual sentry
/// per number; that made *parsing* a stored artifact about as expensive as
/// re-deriving it.  The cursor scans a line in place with std::from_chars:
/// no allocation, no locale, no stream state.

#include <array>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace arl::support {

/// True when `text` is a canonical non-negative number:
/// digits[.digits][e[+-]digits].  Deliberately narrower than std::stod's
/// grammar — no signs, inf/nan, hexfloats or surrounding whitespace — so a
/// writer that prints this form round-trips and nothing else parses.
[[nodiscard]] constexpr bool is_canonical_number(std::string_view text) {
  std::size_t i = 0;
  const auto digits = [&]() {
    const std::size_t start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
    }
    return i > start;
  };
  if (!digits()) {
    return false;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    if (!digits()) {
      return false;
    }
  }
  if (i < text.size() && text[i] == 'e') {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
      ++i;
    }
    if (!digits()) {
      return false;
    }
  }
  return i == text.size();
}

/// Parses a strict canonical decimal u64: nonempty, digits only (no signs,
/// whitespace or leading-zero alternatives rejected by length alone), at
/// most 20 characters, and within [0, max].  Returns nullopt on any
/// violation so callers translate into their own error types.
[[nodiscard]] constexpr std::optional<std::uint64_t> parse_decimal_u64(
    std::string_view text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (text.empty() || text.size() > 20) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  if (value > max) {
    return std::nullopt;
  }
  return value;
}

/// Splits one line into whitespace-separated tokens, in place.  The cursor
/// only borrows the text — callers keep the backing string alive for as
/// long as returned tokens are used.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Advances to the next token; false at end of line.
  bool next(std::string_view& token) {
    while (pos_ != end_ && is_space(*pos_)) {
      ++pos_;
    }
    if (pos_ == end_) {
      return false;
    }
    const char* start = pos_;
    while (pos_ != end_ && !is_space(*pos_)) {
      ++pos_;
    }
    token = std::string_view(start, static_cast<std::size_t>(pos_ - start));
    return true;
  }

  /// Parses the next token as an integer of type T; false when the line is
  /// exhausted or the token has any non-numeric byte (no partial parses).
  template <typename T>
  bool next_number(T& value) {
    std::string_view token;
    if (!next(token)) {
      return false;
    }
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    return ec == std::errc{} && ptr == token.data() + token.size();
  }

 private:
  static bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  const char* pos_;
  const char* end_;
};

// ------------------------------------------------------------- spec grammar

/// The largest integer a spec parameter may spell (nine digits); each
/// registry's validation then applies the field's own bound.
inline constexpr std::uint64_t kMaxSpecInteger = 999'999'999;

/// Throws support::ContractViolation(message) unless `ok`.  The usage-error
/// twin of ARL_EXPECTS: the message carries no source location, because the
/// CLI shows it verbatim.
void require(bool ok, const std::string& message);

/// A spec split at its first ':'.  `params` is nullopt when there is no ':'
/// at all, so "drop" (no parameter list) and "drop:" (one empty parameter)
/// stay distinct.
struct SpecText {
  std::string_view kind;
  std::optional<std::string_view> params;
};
[[nodiscard]] SpecText split_spec(std::string_view text);

/// The fields between `separator`s, empty ones kept: "a,,b" has three
/// fields and "" has one.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char separator);

/// The fields of a wire line split on single spaces.  Throws the wire's own
/// `Error` on an empty field (a leading, trailing or doubled space, or an
/// empty line): both wire formats accept exactly one spelling of a line.
template <typename Error>
[[nodiscard]] std::vector<std::string_view> wire_fields(std::string_view line) {
  std::vector<std::string_view> fields = split(line, ' ');
  for (const std::string_view field : fields) {
    if (field.empty()) {
      throw Error("empty field in line '" + std::string(line) + "'");
    }
  }
  return fields;
}

/// A registry's kind tokens (the part of a spec before ':') in registry
/// order: one table serves both directions of the lookup.
template <typename Kind, std::size_t N>
using KindTokens = std::array<std::pair<Kind, const char*>, N>;

/// The token naming `kind` ("?" for a kind outside the table).
template <typename Kind, std::size_t N>
[[nodiscard]] constexpr const char* kind_token(const KindTokens<Kind, N>& tokens, Kind kind) {
  for (const auto& [k, name] : tokens) {
    if (k == kind) {
      return name;
    }
  }
  return "?";
}

/// The kind `token` names.  Throws support::ContractViolation
/// "unknown <noun> '<text>' (registered: <registered()>)" otherwise, where
/// `text` is the whole spec as given.
template <typename Kind, std::size_t N>
[[nodiscard]] Kind find_kind(const KindTokens<Kind, N>& tokens, std::string_view token,
                             std::string_view text, std::string_view noun,
                             std::string (*registered)()) {
  for (const auto& [k, name] : tokens) {
    if (token == name) {
      return k;
    }
  }
  throw ContractViolation("unknown " + std::string(noun) + " '" + std::string(text) +
                          "' (registered: " + registered() + ")");
}

/// A comma-separated `key=value` list, in order.  Throws
/// support::ContractViolation, prefixed with `at`, on a field without a
/// nonempty key and value and on a repeated key.
[[nodiscard]] std::vector<std::pair<std::string_view, std::string_view>> parse_key_values(
    std::string_view params, const std::string& at);

/// A digits-only integer in [min, max] (parse_decimal_u64: no sign, space,
/// base prefix or exponent).  Throws support::ContractViolation
/// "<what> must be a decimal integer in [min, max] (got '<text>')".
[[nodiscard]] std::uint64_t parse_integer(std::string_view text, const std::string& what,
                                          std::uint64_t max = kMaxSpecInteger,
                                          std::uint64_t min = 0);

/// The double a canonical number (is_canonical_number) spells, or nullopt
/// for any other text and for values outside double's range.
[[nodiscard]] std::optional<double> parse_canonical_double(std::string_view text);

/// parse_canonical_double for a spec parameter such as an edge or fault
/// probability; throws support::ContractViolation naming `what`.  The
/// [0, 1] bound is the registry's own validation.
[[nodiscard]] double parse_probability(std::string_view text, const std::string& what);

/// "0" or "1"; throws support::ContractViolation naming `what` otherwise.
[[nodiscard]] bool parse_flag(std::string_view text, const std::string& what);

/// Shortest decimal spelling that round-trips to exactly `value`: the
/// canonical form of a probability in a spec name ("0.3", not
/// "0.29999999999999999").
[[nodiscard]] std::string shortest_double(double value);

/// `value` as exactly 16 lowercase hex digits: the one spelling of a 64-bit
/// digest, fingerprint or key on the shard-report wire and in the artifact
/// store.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Parses hex64's spelling and nothing else: exactly 16 characters of
/// [0-9a-f] (no prefix, no uppercase).  Throws the reader's own `Error`,
/// "<what> must be 16 lowercase hex digits (got '<token>')", otherwise.
template <typename Error>
[[nodiscard]] std::uint64_t parse_hex64(std::string_view token, std::string_view what) {
  if (token.size() != 16 || token.find_first_not_of("0123456789abcdef") != token.npos) {
    throw Error(std::string(what) + " must be 16 lowercase hex digits (got '" +
                std::string(token) + "')");
  }
  std::uint64_t value = 0;
  for (const char c : token) {
    value = (value << 4) | static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return value;
}

/// Parses a spec name a wire carries with its registry's `parse` and
/// requires the spec's canonical name to be `text` itself: a spec travels
/// only as the one spelling its writer prints, so two readers equate
/// exactly what the registry equates.  Throws the wire's own `Error`,
/// "bad <noun>: <reason>", on an unparseable or non-canonical name.
template <typename Error, typename Parse>
[[nodiscard]] auto parse_canonical(std::string_view text, const char* noun, Parse parse) {
  decltype(parse(text)) spec;
  try {
    spec = parse(text);
  } catch (const ContractViolation& error) {
    throw Error(std::string("bad ") + noun + ": " + error.what());
  }
  if (spec.name() != text) {
    throw Error(std::string("bad ") + noun + ": '" + std::string(text) +
                "' is not in canonical form (want '" + spec.name() + "')");
  }
  return spec;
}

}  // namespace arl::support
