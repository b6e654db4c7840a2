#include "traces/swf.hpp"

#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "traces/csv_util.hpp"
#include "traces/trace_error.hpp"

namespace gridsub::traces {

namespace {

// SWF field indices (0-based; the format numbers them 1-18).
constexpr std::size_t kFieldSubmit = 1;
constexpr std::size_t kFieldRuntime = 3;
constexpr std::size_t kFieldRequestedTime = 8;
constexpr std::size_t kFieldUser = 11;
constexpr std::size_t kFieldGroup = 12;

double field_or(const std::vector<double>& fields, std::size_t index,
                double fallback) {
  return index < fields.size() ? fields[index] : fallback;
}

/// SWF ids are non-negative small integers; -1 means missing. Anything
/// negative, NaN, or beyond int range (corrupt archive) maps to "unknown"
/// instead of hitting the UB of an out-of-range double->int cast.
int to_id(double v) {
  if (!(v >= 0.0) || v > 2147483646.0) return -1;
  return static_cast<int>(v);
}

}  // namespace

void for_each_swf_job(std::istream& is, const SwfReadOptions& options,
                      const std::function<bool(const WorkloadJob&)>& sink,
                      SwfReadReport* report) {
  SwfReadReport local;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.size() > detail::kMaxLineBytes) {
      throw TraceFormatError("swf: oversized line " + std::to_string(line_no) +
                             " (" + std::to_string(line.size()) + " bytes)");
    }
    detail::strip_cr(line);
    // Comments may appear anywhere, possibly indented.
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line[first] == ';') continue;
    ++local.lines;
    // Tokenize on whitespace and parse each field strictly: a garbled
    // token ("3x41") is a typed error, not a silently shortened record
    // (istream extraction would stop at the first bad byte).
    std::vector<double> fields;
    const std::string_view view = line;
    std::size_t pos = 0;
    while (pos < view.size()) {
      const auto start = view.find_first_not_of(" \t", pos);
      if (start == std::string_view::npos) break;
      auto stop = view.find_first_of(" \t", start);
      if (stop == std::string_view::npos) stop = view.size();
      double v = 0.0;
      if (!detail::csv_parse_double(view.substr(start, stop - start), v)) {
        throw TraceFormatError("swf: non-numeric field on line " +
                               std::to_string(line_no));
      }
      fields.push_back(v);
      pos = stop;
    }
    if (fields.size() <= kFieldRuntime) {
      throw TraceFormatError("swf: truncated line " +
                             std::to_string(line_no) + " (" +
                             std::to_string(fields.size()) + " fields)");
    }
    const double submit = fields[kFieldSubmit];
    double runtime = fields[kFieldRuntime];
    if (runtime < 0.0) {
      runtime = field_or(fields, kFieldRequestedTime, -1.0);
    }
    if (submit < 0.0 || runtime < 0.0) {
      ++local.dropped;
      continue;
    }
    const int user = to_id(field_or(fields, kFieldUser, -1.0));
    const int group = to_id(field_or(fields, kFieldGroup, -1.0));
    if ((options.user >= 0 && user != options.user) ||
        (options.group >= 0 && group != options.group)) {
      ++local.filtered;
      continue;
    }
    ++local.accepted;
    if (!sink(WorkloadJob{submit, runtime, user, group})) break;
  }
  if (report != nullptr) *report = local;
}

Workload read_swf(std::istream& is, const std::string& name,
                  const SwfReadOptions& options, SwfReadReport* report) {
  Workload w(name);
  for_each_swf_job(
      is, options,
      [&w](const WorkloadJob& job) {
        w.add_job(job);
        return true;
      },
      report);
  w.sort_by_arrival();
  w.rebase_to_zero();
  return w;
}

Workload read_swf_file(const std::string& path, const SwfReadOptions& options,
                       SwfReadReport* report) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("read_swf_file: cannot open " + path);
  }
  const auto slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return read_swf(is, name, options, report);
}

}  // namespace gridsub::traces
