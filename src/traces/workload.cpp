#include "traces/workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "traces/csv_util.hpp"
#include "traces/trace_error.hpp"

namespace gridsub::traces {

using detail::strip_cr;

void Workload::sort_by_arrival() {
  const auto by_arrival = [](const WorkloadJob& a, const WorkloadJob& b) {
    return a.arrival < b.arrival;
  };
  // Generated and read-back workloads are already in order, and a stable
  // sort of sorted input is the identity: one linear check spares every
  // replayed grid an O(n log n) sort and its n/2-element buffer.
  if (std::is_sorted(jobs_.begin(), jobs_.end(), by_arrival)) return;
  std::stable_sort(jobs_.begin(), jobs_.end(), by_arrival);
}

void Workload::rebase_to_zero() {
  if (jobs_.empty()) return;
  double first = jobs_.front().arrival;
  for (const auto& j : jobs_) first = std::min(first, j.arrival);
  for (auto& j : jobs_) j.arrival -= first;
}

double Workload::duration() const {
  double last = 0.0;
  for (const auto& j : jobs_) last = std::max(last, j.arrival);
  return last;
}

Workload Workload::window(double t0, double t1) const {
  if (!(t1 >= t0)) {
    throw std::invalid_argument("Workload::window: t1 < t0");
  }
  Workload out(name_ + "[" + std::to_string(t0) + "," + std::to_string(t1) +
               ")");
  for (const auto& j : jobs_) {
    if (j.arrival >= t0 && j.arrival < t1) {
      out.add_job(j.arrival - t0, j.runtime, j.user, j.group);
    }
  }
  return out;
}

void Workload::scale_time(double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("Workload::scale_time: factor must be > 0");
  }
  for (auto& j : jobs_) j.arrival *= factor;
}

void Workload::scale_runtime(double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument(
        "Workload::scale_runtime: factor must be > 0");
  }
  for (auto& j : jobs_) j.runtime *= factor;
}

WorkloadStats Workload::stats() const {
  WorkloadStats s;
  s.jobs = jobs_.size();
  if (jobs_.empty()) return s;
  s.duration = duration();
  double runtime_sum = 0.0;
  for (const auto& j : jobs_) runtime_sum += j.runtime;
  s.mean_runtime = runtime_sum / static_cast<double>(jobs_.size());
  if (s.duration > 0.0) {
    s.mean_rate = static_cast<double>(jobs_.size()) / s.duration;
    // Full-hour buckets with the partial tail merged into the last one
    // (its width lands in [1h, 2h)): dividing by a full hour would
    // understate a backlog-flush tail, while dividing a tiny sliver by
    // its own width would manufacture absurd peaks from one job. A
    // sub-hour workload uses a single bucket spanning the whole log.
    constexpr double kBucket = 3600.0;
    const auto n_buckets = std::max<std::size_t>(
        1, static_cast<std::size_t>(s.duration / kBucket));
    std::vector<std::size_t> buckets(n_buckets, 0);
    for (const auto& j : jobs_) {
      auto b = static_cast<std::size_t>(j.arrival / kBucket);
      if (b >= n_buckets) b = n_buckets - 1;
      ++buckets[b];
    }
    for (std::size_t b = 0; b < n_buckets; ++b) {
      const double width =
          b + 1 < n_buckets
              ? kBucket
              : s.duration - static_cast<double>(n_buckets - 1) * kBucket;
      s.peak_hourly_rate = std::max(
          s.peak_hourly_rate, static_cast<double>(buckets[b]) / width);
    }
    s.burstiness = s.mean_rate > 0.0 ? s.peak_hourly_rate / s.mean_rate : 0.0;
  }
  return s;
}

void write_workload_csv(std::ostream& os, const Workload& w) {
  // csv_number writes shortest round-trip to_chars form. With the
  // 6-sig-fig ostream default, a week-scale arrival like 604800.25 would
  // collapse to '604800' and a month-scale one to '2.4192e+07' — silently
  // quantizing the burst structure the replay subsystem exists to
  // preserve — and stream formatting follows the imbued locale besides.
  os << "# name=" << w.name() << "\n";
  os << "arrival_time,runtime,user,group\n";
  for (const auto& j : w.jobs()) {
    detail::csv_number(os, j.arrival);
    os << ',';
    detail::csv_number(os, j.runtime);
    os << ',' << j.user << ',' << j.group << '\n';
  }
}

void write_workload_csv_file(const std::string& path, const Workload& w) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("write_workload_csv_file: cannot open " + path);
  }
  write_workload_csv(os, w);
}

Workload read_workload_csv(std::istream& is) {
  Workload w;
  std::string line;
  bool header_seen = false;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.size() > detail::kMaxLineBytes) {
      throw TraceFormatError("workload csv: oversized line " +
                             std::to_string(line_no) + " (" +
                             std::to_string(line.size()) + " bytes)");
    }
    strip_cr(line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::string key, value;
      if (detail::parse_comment_kv(line, key, value) && key == "name") {
        w.set_name(value);
      }
      continue;
    }
    if (!header_seen) {
      if (line.rfind("arrival_time", 0) != 0) {
        throw TraceFormatError("workload csv: missing header line");
      }
      header_seen = true;
      continue;
    }
    std::istringstream ls(line);
    std::string arrival_str, runtime_str, user_str, group_str;
    if (!std::getline(ls, arrival_str, ',') ||
        !std::getline(ls, runtime_str, ',') ||
        !std::getline(ls, user_str, ',') || !std::getline(ls, group_str)) {
      // Covers mid-record EOF too: a file cut off inside a row arrives
      // here as a line with too few fields.
      throw TraceFormatError("workload csv: malformed line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    // Strict full-token parses: std::stod/stoi silently accepted garbage
    // suffixes ("12.5abc" -> 12.5), turning corruption into plausible
    // but wrong replay data.
    double arrival = 0.0;
    double runtime = 0.0;
    int user = 0;
    int group = 0;
    if (!detail::csv_parse_double(arrival_str, arrival) ||
        !detail::csv_parse_double(runtime_str, runtime) ||
        !detail::csv_parse_int(user_str, user) ||
        !detail::csv_parse_int(group_str, group)) {
      throw TraceFormatError("workload csv: unparseable line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    w.add_job(arrival, runtime, user, group);
  }
  w.sort_by_arrival();
  return w;
}

Workload read_workload_csv_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("read_workload_csv_file: cannot open " + path);
  }
  return read_workload_csv(is);
}

}  // namespace gridsub::traces
