#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace iotml::obs {

/// Escape `text` for embedding inside a JSON string literal (quotes are the
/// caller's job). Control characters become \uXXXX escapes.
std::string json_escape(const std::string& text);

/// Render a double as a JSON number token. JSON cannot represent NaN or
/// infinities, so non-finite values become 0.
std::string json_number(double value);

/// Parse `text` as a strict decimal integer of type T: an optional '-' (signed
/// T only), then digits with no leading zero. False unless the whole text is
/// such a literal and its value fits T.
template <std::integral T>
bool parse_int(std::string_view text, T& out) {
  const std::string_view digits = text.starts_with('-') ? text.substr(1) : text;
  if (digits.empty() || (digits.size() > 1 && digits[0] == '0')) return false;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

/// One parsed JSON value. Objects keep insertion order. A number keeps its
/// double value and its literal text, so integers read back exactly at any
/// width (trace ids use all 64 bits).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;  ///< a string's value, or a number's literal
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* find(const std::string& key) const;

  /// This number as an integer of type T; false unless the literal is an
  /// integer that fits T.
  template <std::integral T>
  bool to_int(T& out) const {
    return kind == Kind::kNumber && parse_int(str, out);
  }
};

/// Containers nested deeper than this are rejected, so hostile input cannot
/// exhaust the parser's stack. A report ledger nests at most five
/// containers deep.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse one JSON value (RFC 8259 grammar) from `text`. Returns false and
/// fills `error` on malformed input: bad number tokens, raw control
/// characters or lone surrogates in strings, nesting past kMaxJsonDepth.
/// Trailing whitespace is allowed, trailing garbage is not.
bool parse_json(const std::string& text, Json& out, std::string& error);

}  // namespace iotml::obs
