// gridsub benchmark program.
//
//   gridsub_perfbench --workload <crossweek|des_scale|advisor> --seed <n>
//                     --seconds <s> --trace <0|1> [--size full|tiny]
//                     [--out <dir>] [--revision <text>]
//
// Runs set-up plus timed iterations of one workload until --seconds have
// passed, checks every iteration's output, and prints one line per metric
// followed by one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (medians over iterations).
// --trace 1 alternates untraced and traced iterations in whole ABBA
// blocks and reports the per-layer metrics of the traced iterations
// (medians), self time per layer, and tracing overhead (median traced
// minus median untraced end-to-end figures). Spans are kept in memory and
// written to <out> as Chrome trace-event JSON when the run ends, next to
// a record of every figure and stamp.
//
// Exit code 0 when every output check passed, 1 when one failed (the JSON
// line is still printed, with "correct": false), 2 on a usage error or a
// build that is not fit to measure.
//
// perfbench/run.py builds this binary from source and runs it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0): every workload reports all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"rate_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

/// Per-layer metrics (--trace 1). A workload that bypasses a layer
/// reports 0 for it: that layer did no work.
constexpr MetricSpec kPerLayer[] = {
    {"traces.scenario_gen_s", "s"},
    {"exp.fit_stage_s", "s"},
    {"exp.eval_stage_s", "s"},
    {"exp.cell_ms.p50", "ms"},
    {"exp.cell_ms.p99", "ms"},
    {"parallel.busy_frac", "fraction"},
    {"exp.cells", "count"},
    {"exp.cells_failed", "count"},
    {"sim.probe_run_ms", "ms"},
    {"sim.probe_events", "count"},
    {"model.from_trace_ms", "ms"},
    {"core.cost_model_ms", "ms"},
    {"core.optimize_delayed_cost_ms", "ms"},
    {"core.evaluate_multiple_ms", "ms"},
    {"sim.grid_build_ms", "ms"},
    {"sim.client_setup_ms", "ms"},
    {"sim.run_s", "s"},
    {"sim.slice_ms.p50", "ms"},
    {"sim.slice_ms.p99", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_task", "count"},
    {"sim.jobs_submitted", "count"},
    {"sim.jobs_canceled", "count"},
    {"sim.cancel_frac", "fraction"},
    {"sim.rss_kib_per_client", "KiB"},
    {"serve.replay_feed_s", "s"},
    {"serve.ingest_us.p50", "us"},
    {"serve.ingest_us.p99", "us"},
    {"online.refits", "count"},
    {"core.recommend_ms", "ms"},
    {"serve.refresh_now_ms.p50", "ms"},
    {"serve.refresh_now_ms.p99", "ms"},
    {"serve.swaps", "count"},
    {"serve.staleness_max", "count"},
    {"serve.advise_ns", "ns"},
    {"serve.stats_us.p50", "us"},
    {"serve.stats_us.p99", "us"},
    {"serve.advise_us.p50", "us"},
    {"serve.advise_us.p99", "us"},
    {"serve.generator_late_us.max", "us"},
    {"self.traces_s", "s"},
    {"self.sim_s", "s"},
    {"self.model_s", "s"},
    {"self.core_s", "s"},
    {"self.exp_s", "s"},
    {"self.serve_s", "s"},
    {"trace_overhead.setup_s", "s"},
    {"trace_overhead.wall_s", "s"},
    {"trace_overhead.rate_per_s", "1/s"},
};

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

/// Figures only count from an optimized, uninstrumented build.
bool release_build(std::string& why) {
#if defined(PERFBENCH_SANITIZED)
  why = "sanitizer build";
  return false;
#else
#if !defined(NDEBUG)
  why = "assertions enabled (no NDEBUG)";
  return false;
#else
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    why = std::string("build type '") + PERFBENCH_BUILD_TYPE + "'";
    return false;
  }
  return true;
#endif
#endif
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "gridsub_perfbench: %s\nusage: gridsub_perfbench --workload "
               "<crossweek|des_scale|advisor> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|tiny] [--out <dir>] "
               "[--revision <text>]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("bad --trace");
      }
      o.trace = value[0] == '1';
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") == 0) {
        o.size = Size::kFull;
      } else if (std::strcmp(value, "tiny") == 0) {
        o.size = Size::kTiny;
      } else {
        usage("bad --size");
      }
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--revision") {
      o.revision = value;
    } else {
      usage("unknown option");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// User plus system CPU time of the whole process so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

/// A finite number with all its digits (JSON has no NaN).
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// `"name": {"value": v, "unit": "u"}, ...` for a metrics object.
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    if (!out.empty()) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out;
}

double field_median(const std::vector<Iteration>& its,
                    double Iteration::*field) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(it.*field);
  return median(v);
}

double setup_median(const std::vector<Iteration>& its) {
  std::vector<double> v;
  for (const Iteration& it : its) {
    v.insert(v.end(), it.setup_s.begin(), it.setup_s.end());
  }
  return median(v);
}

/// The timed end-to-end figures of a set of iterations. With `warm_up`,
/// the first iteration (cold caches, pool, allocator and page tables) is
/// left out of wall_s and rate_per_s unless it is the only one; its
/// set-ups count.
std::map<std::string, double> end_to_end(const std::vector<Iteration>& its,
                                         bool warm_up) {
  const std::vector<Iteration> timed(
      its.begin() + (warm_up && its.size() > 1 ? 1 : 0), its.end());
  return {{"setup_s", setup_median(its)},
          {"wall_s", field_median(timed, &Iteration::wall_s)},
          {"rate_per_s", field_median(timed, &Iteration::rate_per_s)}};
}

/// Medians over iterations of each workload-specific named figure.
std::vector<Metric> named_medians(const std::vector<Iteration>& its) {
  std::vector<Metric> out;
  if (its.empty()) return out;
  for (std::size_t k = 0; k < its.front().named.size(); ++k) {
    std::vector<double> v;
    for (const Iteration& it : its) v.push_back(it.named[k].value);
    out.push_back({its.front().named[k].name, median(v),
                   its.front().named[k].unit});
  }
  return out;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "crossweek") {
    workload = make_crossweek(options);
  } else if (options.workload == "des_scale") {
    workload = make_des_scale(options);
  } else if (options.workload == "advisor") {
    workload = make_advisor(options);
  } else {
    usage("unknown workload");
  }

  char stamp[512];
  std::snprintf(stamp, sizeof(stamp),
                "workload=%s seed=%llu size=%s trace=%d threads=%u "
                "cpu_count=%u build_type=%s revision=%s",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.size == Size::kTiny ? "tiny" : "full",
                options.trace ? 1 : 0, workload->threads(),
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                options.revision.c_str());
  std::printf("# gridsub perfbench: %s\n", stamp);
  std::fflush(stdout);

  Tracer tracer;
  Outcome outcome;
  std::vector<Iteration> plain, traced;
  std::vector<std::uint32_t> traced_ids;
  double peak_rss_mib = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t i = 0;; ++i) {
    // Traced runs alternate in ABBA blocks (untraced, traced, traced,
    // untraced), so warm-up and host drift fall on both sides of the
    // tracing-overhead difference.
    const bool use_trace = options.trace && (i % 4 == 1 || i % 4 == 2);
    tracer.set_iteration(i);
    const double cpu_before = process_cpu_s();
    Iteration it =
        workload->run_iteration(use_trace ? &tracer : nullptr, i, outcome);
    std::printf("iteration %u%s: setup_s %.4f, wall_s %.4f, rate_per_s %.1f, "
                "process cpu_s %.3f\n",
                i, use_trace ? " (traced)" : "", median(it.setup_s), it.wall_s,
                it.rate_per_s, process_cpu_s() - cpu_before);
    std::fflush(stdout);
    // Peak memory of one iteration: later ones only add allocator
    // fragmentation across repeated set-ups.
    if (i == 0) peak_rss_mib = peak_rss_kib() / 1024.0;
    if (use_trace) {
      traced.push_back(std::move(it));
      traced_ids.push_back(i);
    } else {
      plain.push_back(std::move(it));
    }
    if (seconds_since(start) >= options.seconds &&
        (!options.trace || i % 4 == 3) && i + 1 >= workload->min_iterations()) {
      break;
    }
  }
  const std::vector<Metric> run_figures = workload->finish(outcome);

  std::map<std::string, double> e2e = end_to_end(plain, workload->warm_up());
  e2e["peak_rss_mib"] = peak_rss_mib;
  std::vector<Metric> reported;
  if (!options.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      reported.push_back({m.name, e2e.at(m.name), m.unit});
    }
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const std::uint32_t id : traced_ids) {
      for (const Metric& m : workload->layer_metrics(tracer, id)) {
        samples[m.name].push_back(m.value);
      }
      for (const auto& [layer, self_s] :
           self_time_by_layer(tracer, tracer.spans(), id)) {
        samples["self." + layer + "_s"].push_back(self_s);
      }
    }
    const std::map<std::string, double> with_trace =
        end_to_end(traced, /*warm_up=*/false);
    for (const char* name : {"setup_s", "wall_s", "rate_per_s"}) {
      samples[std::string("trace_overhead.") + name] = {with_trace.at(name) -
                                                         e2e.at(name)};
    }
    for (const MetricSpec& m : kPerLayer) {
      const auto found = samples.find(m.name);
      reported.push_back(
          {m.name, found == samples.end() ? 0.0 : median(found->second),
           m.unit});
    }
  }

  // Human-readable report: gated metrics, the workload's own end-to-end
  // figures, failures, checks.
  for (const Metric& m : reported) {
    std::printf("metric %s = %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::vector<Metric> named = named_medians(options.trace ? traced : plain);
  named.insert(named.end(), run_figures.begin(), run_figures.end());
  for (const Metric& m : named) {
    std::printf("figure %s = %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  const double failed_frac =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  std::printf("figure failed_frac = %s fraction (%llu of %llu)\n",
              number(failed_frac).c_str(),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  bool correct = outcome.check_failures.empty() && outcome.attempted > 0;
  for (const Metric& m : reported) correct = correct && std::isfinite(m.value);
  for (const std::string& f : outcome.check_failures) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");

  // Record and spans, written at exit.
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string base = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  if (options.trace && !tracer.write_chrome_trace(base + ".spans.json")) {
    std::fprintf(stderr, "cannot write %s.spans.json\n", base.c_str());
  }
  std::vector<Metric> everything = reported;
  everything.insert(everything.end(), named.begin(), named.end());
  if (std::ofstream rec(base + ".record.json"); rec) {
    rec << "{\"stamp\": \"" << stamp << "\", \"correct\": "
        << (correct ? "true" : "false") << ", \"iterations\": "
        << plain.size() + traced.size() << ", \"metrics\": {"
        << metrics_json(everything) << "}}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics_json(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  std::string why;
  if (!perfbench::release_build(why)) {
    std::fprintf(stderr,
                 "gridsub_perfbench: refusing to measure a non-Release "
                 "build (%s)\n",
                 why.c_str());
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridsub_perfbench: %s\n", e.what());
    return 1;
  }
}
