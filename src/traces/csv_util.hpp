#pragma once

// Internal helpers shared by the traces CSV readers (trace_io, workload).
// One definition of the whitespace/CRLF tolerance rules, so the probe-trace
// and workload formats cannot drift in what they accept.

#include <charconv>
#include <cmath>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

namespace gridsub::traces::detail {

/// Hard cap on one input line. Real SWF/CSV lines are well under 1 KiB;
/// a line this long means a corrupt or hostile file, and refusing it
/// keeps a reader from buffering an arbitrarily large "line" into memory
/// (e.g. a multi-GB file with no newlines).
inline constexpr std::size_t kMaxLineBytes = 1u << 20;

/// Strict full-token double parse: the whole trimmed token must be
/// consumed (a leading '+' is tolerated for hand-written files). False
/// on empty, trailing garbage ("12.5abc"), or out-of-range input — the
/// silent-acceptance cases std::stod lets through — and on "nan"/"inf",
/// which std::from_chars accepts but no trace, workload or SWF field can
/// mean (a NaN arrival would reach the simulator's clock).
[[nodiscard]] inline bool csv_parse_double(std::string_view token,
                                           double& out) {
  const auto first = token.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return false;
  const auto last = token.find_last_not_of(" \t\r");
  token = token.substr(first, last - first + 1);
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  if (token.empty()) return false;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto r = std::from_chars(begin, end, out);
  return r.ec == std::errc() && r.ptr == end && std::isfinite(out);
}

/// Strict full-token int parse; same contract as csv_parse_double.
[[nodiscard]] inline bool csv_parse_int(std::string_view token, int& out) {
  const auto first = token.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return false;
  const auto last = token.find_last_not_of(" \t\r");
  token = token.substr(first, last - first + 1);
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  if (token.empty()) return false;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto r = std::from_chars(begin, end, out);
  return r.ec == std::errc() && r.ptr == end;
}

/// Writes a double in shortest round-trip std::to_chars form:
/// locale-independent, byte-identical for equal values, and re-parses to
/// the same double. The CSV writers must use this instead of `os << v` —
/// default ostream formatting truncates to 6 significant digits and
/// follows the stream's imbued locale, both of which break the
/// byte-determinism contract on written traces.
inline void csv_number(std::ostream& os, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, static_cast<std::streamsize>(r.ptr - buf));
}

/// Trims spaces, tabs, and CRs from both ends (CSV files written on
/// Windows end lines with \r\n; getline leaves the \r on the last field).
inline std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// Removes a trailing CR in place (call right after getline).
inline void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// Parses a `# key=value` metadata comment (leading '#' already verified
/// by the caller). Returns false when the line carries no '='; key and
/// value come back trimmed.
inline bool parse_comment_kv(const std::string& line, std::string& key,
                             std::string& value) {
  const auto eq = line.find('=');
  if (eq == std::string::npos) return false;
  key = trim(line.substr(1, eq - 1));
  value = trim(line.substr(eq + 1));
  return true;
}

}  // namespace gridsub::traces::detail
