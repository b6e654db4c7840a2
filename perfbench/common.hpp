#pragma once

// Shared plumbing of the gridsub benchmark program: run options, the
// per-iteration end-to-end figures every workload reports, the in-memory
// span tracer, and small measurement helpers.
//
// Every timing in this directory is taken from outside the library: the
// program wraps its own calls into traces, sim, model, core, exp/parallel,
// serve and online. Nothing here is linked into libgridsub.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Workload input size: `full` is the benchmark proper, `tiny` the
/// seed-override smoke (same code paths and checks, seconds per run).
enum class Size { kFull, kTiny };

/// The seed whose outputs the checks pin as reference values.
constexpr std::uint64_t kRecordedSeed = 20090611;

struct Options {
  std::string workload;
  std::uint64_t seed = kRecordedSeed;
  double seconds = 10.0;  ///< measurement budget of one run
  bool trace = false;     ///< traced run: per-layer metrics instead
  Size size = Size::kFull;
  std::string out_dir = ".bench_out";  ///< spans and run records land here
  std::string revision = "unknown";
};

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// Peak resident set of the process (VmHWM), KiB.
double peak_rss_kib();

// ---------------------------------------------------------------------------
// Spans in memory.
//
// A span is (name, start, end, parent, group, thread, iteration). The
// parent defaults to the innermost span open on the same thread; work
// handed to another thread names its parent explicitly. Spans of one
// campaign cell, request or ingested job share a group id. Everything
// stays in per-thread buffers until the run ends; summaries and the
// Chrome trace-event file are computed from the buffers afterwards.
// A null Tracer* turns every call into a no-op, which is how the
// untraced run measures end-to-end figures.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t group = 0;   ///< shared by one cell / request / job
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t name = 0;     ///< Tracer::name_of(name)
  std::uint32_t thread = 0;
  std::uint32_t iteration = 0;
};

struct CounterRecord {
  std::string name;
  std::uint32_t iteration = 0;
  double value = 0.0;
};

class Tracer {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::uint64_t group = 0,
          std::uint64_t parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's id (0 when tracing is off), for explicit children.
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t group_ = 0;
    std::uint32_t name_ = 0;
    Clock::time_point start_;
  };

  /// Records a finished span whose ends were observed by the caller,
  /// possibly on different threads (a request posted by one thread and
  /// answered on another).
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end, std::uint64_t group,
              std::uint64_t parent);

  /// Per-iteration counter (a count observed at a layer boundary).
  void count(std::string_view name, double value);

  /// Iteration stamped on spans and counters recorded from now on.
  void set_iteration(std::uint32_t iteration) { iteration_ = iteration; }

  /// Every span recorded so far; call only while no thread records.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::vector<CounterRecord> counters() const;
  [[nodiscard]] const std::string& name_of(std::uint32_t index) const;

  /// Chrome trace-event JSON (viewable in Perfetto); false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };

  ThreadBuffer& buffer();
  std::uint32_t intern(std::string_view name);
  std::int64_t since_epoch(Clock::time_point t) const;
  void push(SpanRecord record);

  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> iteration_{0};
  mutable std::mutex mu_;  ///< names, buffer registration, counters
  std::deque<std::string> names_;  ///< deque: name_of() references stay valid
  std::deque<ThreadBuffer> buffers_;
  std::vector<CounterRecord> counters_;
};

/// Spans named `name` recorded in `iteration`, as durations.
std::vector<double> span_durations_s(const Tracer& tracer,
                                     const std::vector<SpanRecord>& spans,
                                     std::string_view name,
                                     std::uint32_t iteration);

/// Sum of the counters named `name` recorded in `iteration`.
double counter_sum(const std::vector<CounterRecord>& counters,
                   std::string_view name, std::uint32_t iteration);

/// Self time per layer (the span-name prefix before the first '.') in
/// `iteration`: each span's duration minus the part of it its child
/// spans cover, summed over the layer's spans.
std::vector<std::pair<std::string, double>> self_time_by_layer(
    const Tracer& tracer, const std::vector<SpanRecord>& spans,
    std::uint32_t iteration);

// ---------------------------------------------------------------------------
// What a workload hands back.
// ---------------------------------------------------------------------------

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// End-to-end figures of one timed iteration. Every workload fills every
/// field; README.md says what each one means per workload.
struct Iteration {
  std::vector<double> setup_s;  ///< one sample per set-up performed
  double wall_s = 0.0;          ///< the fixed-size timed phase
  double rate_per_s = 0.0;      ///< the workload's headline rate
  /// Workload-specific end-to-end figures (events_per_s, serve_rps, ...),
  /// printed by name; the gated figures above are among them.
  std::vector<Metric> named;
};

/// Accumulated over a run: correctness and failure accounting.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// A workload: run_iteration() performs set-up and one timed iteration.
/// `tracer` is null on untraced iterations. layer_metrics() turns the
/// spans and counters of one traced iteration into per-layer metrics.
/// A run performs at least min_iterations() iterations; finish() runs
/// once after the last one, for checks and figures over the whole run.
/// When warm_up() holds, the first iteration warms state later ones reuse
/// and is left out of wall_s and rate_per_s.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual unsigned threads() const = 0;
  [[nodiscard]] virtual std::uint32_t min_iterations() const { return 1; }
  [[nodiscard]] virtual bool warm_up() const { return true; }
  virtual Iteration run_iteration(Tracer* tracer, std::uint32_t iteration,
                                  Outcome& outcome) = 0;
  [[nodiscard]] virtual std::vector<Metric> layer_metrics(
      const Tracer& tracer, std::uint32_t iteration) const = 0;
  virtual std::vector<Metric> finish(Outcome& /*outcome*/) { return {}; }
};

std::unique_ptr<Workload> make_crossweek(const Options& options);
std::unique_ptr<Workload> make_des_scale(const Options& options);
std::unique_ptr<Workload> make_advisor(const Options& options);

}  // namespace perfbench
