#pragma once

// A strict parser for the subset of JSON gridsub's own writers emit:
// objects, arrays, strings, and numbers (null stands in for non-finite
// values, mirroring json_util.hpp's writer). Its one input today is the
// advisor recovery dump (serve/advisor.hpp), a machine format written and
// read only by gridsub, so any deviation is treated as corruption and
// reported with its byte offset via JsonParseError.
//
// Nesting is bounded: gridsub's writers nest at most 5 levels (the
// advisor dump 4, the campaign JSON 5), so a document deeper than
// kMaxDepth is rejected as corrupt before the recursion can exhaust the
// stack.

#include <charconv>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gridsub::exp {

/// Raised on malformed, truncated, or too deeply nested JSON, and on a
/// missing or mistyped key.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace gridsub::exp

namespace gridsub::exp::detail {

struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;          // every number, parsed as double
  std::uint64_t integer = 0;    // exact value when is_integer
  bool is_integer = false;
  bool boolean = false;         // value when kind == kBool
};

class JsonParser {
 public:
  /// Deepest array/object nesting accepted; well above the writers' 5.
  static constexpr std::size_t kMaxDepth = 64;

  JsonParser(std::string_view text, const std::string& origin)
      : text_(text), origin_(origin) {}

  /// Parses exactly one value followed by nothing but whitespace.
  [[nodiscard]] JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError(origin_ + ": " + what + " (byte " +
                         std::to_string(pos_) + ")");
  }

  void skip_ws() {
    // Newlines included: the advisor recovery dump (serve/advisor.hpp)
    // is pretty-printed JSON.
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  [[nodiscard]] JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = text_[pos_] == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return string_value();
      case 'n': return null_value();
      case 't':
      case 'f': return bool_value();
      default: return number();
    }
  }

  [[nodiscard]] JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key.string), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  [[nodiscard]] JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  [[nodiscard]] JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string.push_back('"'); break;
        case '\\': v.string.push_back('\\'); break;
        case 'n': v.string.push_back('\n'); break;
        case 't': v.string.push_back('\t'); break;
        case 'r': v.string.push_back('\r'); break;
        case 'u': {
          // The writer only emits \u00xx for control bytes.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto* first = text_.data() + pos_;
          const auto r = std::from_chars(first, first + 4, code, 16);
          if (r.ptr != first + 4 || code > 0xFF) fail("bad \\u escape");
          pos_ += 4;
          v.string.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  [[nodiscard]] JsonValue bool_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      v.boolean = true;
      return v;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return v;
    }
    fail("bad literal");
  }

  [[nodiscard]] JsonValue null_value() {
    if (text_.substr(pos_, 4) != "null") fail("bad literal");
    pos_ += 4;
    JsonValue v;
    v.kind = JsonValue::Kind::kNull;
    v.number = std::numeric_limits<double>::quiet_NaN();
    return v;
  }

  [[nodiscard]] JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const auto rd = std::from_chars(first, last, v.number);
    if (rd.ec != std::errc() || rd.ptr != last) fail("malformed number");
    // Plain digit runs also carry the exact 64-bit value (flat indices,
    // seeds) that a double would truncate.
    const auto ri = std::from_chars(first, last, v.integer);
    v.is_integer = ri.ec == std::errc() && ri.ptr == last;
    return v;
  }

  std::string_view text_;
  std::string origin_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays and objects around pos_
};

// ---------------------------------------------------------------------------
// Typed accessors over the parsed DOM, each failing with a named key so
// corrupt files report what is wrong, not just where.
// ---------------------------------------------------------------------------

[[nodiscard]] inline const JsonValue& get_key(const JsonValue& obj,
                                              const std::string& key,
                                              const std::string& origin) {
  for (const auto& [k, v] : obj.object) {
    if (k == key) return v;
  }
  throw JsonParseError(origin + ": missing key \"" + key + "\"");
}

[[nodiscard]] inline const std::string& get_string(
    const JsonValue& obj, const std::string& key, const std::string& origin) {
  const JsonValue& v = get_key(obj, key, origin);
  if (v.kind != JsonValue::Kind::kString) {
    throw JsonParseError(origin + ": key \"" + key + "\" is not a string");
  }
  return v.string;
}

[[nodiscard]] inline std::uint64_t get_uint(const JsonValue& obj,
                                            const std::string& key,
                                            const std::string& origin) {
  const JsonValue& v = get_key(obj, key, origin);
  if (v.kind != JsonValue::Kind::kNumber || !v.is_integer) {
    throw JsonParseError(origin + ": key \"" + key +
                         "\" is not an unsigned integer");
  }
  return v.integer;
}

[[nodiscard]] inline double get_number(const JsonValue& obj,
                                       const std::string& key,
                                       const std::string& origin) {
  const JsonValue& v = get_key(obj, key, origin);
  // null is the writer's spelling for non-finite doubles (json_util.hpp).
  if (v.kind != JsonValue::Kind::kNumber &&
      v.kind != JsonValue::Kind::kNull) {
    throw JsonParseError(origin + ": key \"" + key + "\" is not a number");
  }
  return v.number;
}

[[nodiscard]] inline bool get_bool(const JsonValue& obj,
                                   const std::string& key,
                                   const std::string& origin) {
  const JsonValue& v = get_key(obj, key, origin);
  if (v.kind != JsonValue::Kind::kBool) {
    throw JsonParseError(origin + ": key \"" + key + "\" is not a boolean");
  }
  return v.boolean;
}

}  // namespace gridsub::exp::detail
