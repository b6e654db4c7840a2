#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

double proc_status_kib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = field;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

/// Open spans of the calling thread, innermost last (parent inheritance).
thread_local std::vector<std::uint64_t> t_open;

}  // namespace

double peak_rss_kib() { return proc_status_kib("VmHWM:"); }

// ---------------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer::ThreadBuffer& Tracer::buffer() {
  // One tracer per process, so a plain thread_local pointer suffices.
  thread_local ThreadBuffer* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    mine = &buffers_.back();
    mine->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    mine->spans.reserve(1024);
  }
  return *mine;
}

std::uint32_t Tracer::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Tracer::since_epoch(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

void Tracer::push(SpanRecord record) {
  ThreadBuffer& buf = buffer();
  record.thread = buf.thread;
  record.iteration = iteration_.load(std::memory_order_relaxed);
  buf.spans.push_back(record);
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name,
                     std::uint64_t group, std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  name_ = tracer_->intern(name);
  id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent != kInherit ? parent
                               : (t_open.empty() ? 0 : t_open.back());
  group_ = group;
  t_open.push_back(id_);
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open.pop_back();
  SpanRecord r;
  r.id = id_;
  r.parent = parent_;
  r.group = group_;
  r.name = name_;
  r.start_ns = tracer_->since_epoch(start_);
  r.end_ns = tracer_->since_epoch(end);
  tracer_->push(r);
}

void Tracer::record(std::string_view name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t group,
                    std::uint64_t parent) {
  SpanRecord r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.parent = parent;
  r.group = group;
  r.name = intern(name);
  r.start_ns = since_epoch(start);
  r.end_ns = since_epoch(end);
  push(r);
}

void Tracer::count(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(
      {std::string(name), iteration_.load(std::memory_order_relaxed), value});
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const ThreadBuffer& b : buffers_) {
    all.insert(all.end(), b.spans.begin(), b.spans.end());
  }
  return all;
}

std::vector<CounterRecord> Tracer::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

const std::string& Tracer::name_of(std::uint32_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return names_.at(index);
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[384];
  for (const SpanRecord& s : all) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"group\": %llu, \"iteration\": %u}}",
        first ? "" : ",\n", name_of(s.name).c_str(), s.thread,
        static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.group), s.iteration);
    os << buf;
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os.flush());
}

// ---------------------------------------------------------------------------

std::vector<double> span_durations_s(const Tracer& tracer,
                                     const std::vector<SpanRecord>& spans,
                                     std::string_view name,
                                     std::uint32_t iteration) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.iteration == iteration && tracer.name_of(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  return out;
}

double counter_sum(const std::vector<CounterRecord>& counters,
                   std::string_view name, std::uint32_t iteration) {
  double sum = 0.0;
  for (const CounterRecord& c : counters) {
    if (c.iteration == iteration && c.name == name) sum += c.value;
  }
  return sum;
}

std::vector<std::pair<std::string, double>> self_time_by_layer(
    const Tracer& tracer, const std::vector<SpanRecord>& spans,
    std::uint32_t iteration) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.iteration == iteration && s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::string, double> layers;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const SpanRecord& s : spans) {
    if (s.iteration != iteration) continue;
    // Union of the children's intervals clipped to this span: children on
    // other threads may overlap one another.
    cover.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = -1;
    for (const auto& [a, b] : cover) {
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const std::string& name = tracer.name_of(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    layers[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return {layers.begin(), layers.end()};
}

}  // namespace perfbench
