#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace iotml::obs {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  Parser(const std::string& text, std::string& error) : text_(text), error_(error) {}

  bool parse(Json& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  bool value(Json& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) return fail("nesting deeper than the limit");
      ++depth_;
      const bool ok = c == '{' ? object(out) : array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out.kind = Json::Kind::kString;
      return string(out.str);
    }
    if (c == 't' || c == 'f') return boolean(out);
    if (c == 'n') return null(out);
    return number(out);
  }

  bool literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool boolean(Json& out) {
    out.kind = Json::Kind::kBool;
    out.boolean = text_[pos_] == 't';
    return literal(out.boolean ? "true" : "false");
  }

  bool null(Json& out) {
    out.kind = Json::Kind::kNull;
    return literal("null");
  }

  // Advances over one or more digits; false when there are none.
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(Json& out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (!digits()) {
      return fail("expected a value");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) return fail("expected digits after '.'");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) return fail("expected exponent digits");
    }
    out.kind = Json::Kind::kNumber;
    out.str = text_.substr(start, pos_ - start);
    out.number = std::strtod(out.str.c_str(), nullptr);
    if (!std::isfinite(out.number)) return fail("number out of range");
    return true;
  }

  // Four hex digits of a \u escape.
  bool hex4(unsigned& code) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (is_digit(h)) code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return fail("bad \\u escape digit");
    }
    return true;
  }

  // A \u escape as one Unicode scalar: a BMP code point or a surrogate pair.
  // A lone surrogate has no UTF-8 encoding and is rejected.
  bool unicode_escape(std::string& out) {
    unsigned code = 0;
    if (!hex4(code)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) return fail("lone low surrogate");
    if (code >= 0xD800 && code <= 0xDBFF) {
      unsigned low = 0;
      if (!literal("\\u") || !hex4(low) || low < 0xDC00 || low > 0xDFFF) {
        return fail("lone high surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: a lead byte marking the length, then 6-bit continuation bytes.
    const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    constexpr unsigned kLead[4] = {0x00, 0xC0, 0xE0, 0xF0};
    out.push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out.push_back(static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F)));
    }
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'u':
          if (!unicode_escape(out)) return false;
          break;
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  // The comma-separated items of an array or object, from its opening
  // bracket through `close`; `item` parses one.
  template <class Item>
  bool items(char close, Item item) {
    ++pos_;  // opening bracket
    skip_ws();
    for (bool first = true; !at(close); first = false) {
      if (!first) {
        if (!at(',')) return fail(std::string("expected ',' or '") + close + "'");
        ++pos_;
        skip_ws();
      }
      if (!item()) return false;
      skip_ws();
    }
    ++pos_;
    return true;
  }

  bool array(Json& out) {
    out.kind = Json::Kind::kArray;
    return items(']', [&] { return value(out.arr.emplace_back()); });
  }

  bool object(Json& out) {
    out.kind = Json::Kind::kObject;
    return items('}', [&] {
      if (!at('"')) return fail("expected object key");
      auto& [key, val] = out.obj.emplace_back();
      if (!string(key)) return false;
      skip_ws();
      if (!at(':')) return fail("expected ':'");
      ++pos_;
      skip_ws();
      return value(val);
    });
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool parse_json(const std::string& text, Json& out, std::string& error) {
  out = Json{};
  Parser p(text, error);
  return p.parse(out);
}

}  // namespace iotml::obs
