#pragma once

// Internal deterministic-JSON output helpers shared by the campaign
// result writer (campaign.cpp) and the advisor recovery dump
// (serve/advisor.cpp). Not part of the public exp/ API.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>

namespace gridsub::exp::detail {

inline void json_escape(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Shortest round-trip representation via std::to_chars: byte-identical for
// equal doubles, locale-independent, and re-parses to the same value.
inline void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; emit null so consumers fail loudly, not subtly.
    os << "null";
    return;
  }
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, r.ptr - buf);
}

}  // namespace gridsub::exp::detail
