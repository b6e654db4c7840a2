// gridsub-swfconvert: convert a Standard Workload Format archive into the
// repo's replayable workload CSV, optionally filtering by user/group,
// cutting a window, downsampling, and rescaling on the way.
//
//   gridsub-swfconvert --in LPC-EGEE.swf --out week.csv
//                      --user 42 --window-start 604800
//                      --window-length 604800 --sample 0.25
//                      --time-scale 0.25 --runtime-scale 1
//
// --user/--group N keep only that submitter's jobs (how VO-level
// submission patterns are isolated from a site archive);
// --sample p keeps each job with probability p (seeded, deterministic);
// --time-scale f multiplies arrivals by f (f < 1 compresses the timeline);
// --runtime-scale likewise for runtimes. A typical recipe scales a
// 1000-CPU cluster's week down to the bench grid: sample 0.25 to thin the
// job count, runtime-scale to match the grid's service capacity.
//
// The archive is streamed line by line and only the jobs that survive
// filter + window + sample are materialized, so month-long Parallel
// Workloads Archive files convert in O(kept) memory. Windowing is applied
// in archive time (SWF submit times are relative to the log start by
// spec); --max-jobs caps the *kept* jobs.

// gridsub-lint: allow-file(printf-float) CLI console diagnostics only

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "cli.hpp"
#include "stats/rng.hpp"
#include "traces/swf.hpp"
#include "traces/workload.hpp"

int main(int argc, char** argv) try {
  using namespace gridsub;
  tools::Cli cli(
      "gridsub-swfconvert",
      "convert/downsample an SWF archive to replayable workload CSV",
      {
          {"--in", "input SWF file (required)"},
          {"--out", "output workload CSV path (default: stdout)"},
          {"--name", "workload name (default: input file name)"},
          {"--user", "keep only jobs of this user id"},
          {"--group", "keep only jobs of this group id"},
          {"--max-jobs", "stop after N kept jobs (default: all)"},
          {"--window-start", "cut window start, archive seconds (default 0)"},
          {"--window-length", "cut window length, seconds (default: all)"},
          {"--sample", "keep each job with probability p in (0,1]"},
          {"--seed", "sampling seed (default 1)"},
          {"--time-scale", "multiply arrivals by f > 0 (default 1)"},
          {"--runtime-scale", "multiply runtimes by f > 0 (default 1)"},
          {"--stats", "print shape statistics of the result and exit"},
      },
      {"--stats"});
  cli.parse(argc, argv);

  const auto in = cli.get("--in");
  if (!in) {
    std::fprintf(stderr, "gridsub-swfconvert: --in is required\n");
    return 2;
  }
  const double sample_p = cli.number_or("--sample", 1.0);
  if (cli.get("--sample") && !(sample_p > 0.0 && sample_p <= 1.0)) {
    std::fprintf(stderr, "gridsub-swfconvert: --sample must be in (0,1]\n");
    return 2;
  }

  traces::SwfReadOptions options;
  constexpr std::int64_t kMaxId = std::numeric_limits<int>::max();
  options.user = static_cast<int>(cli.count_or("--user", -1, 0, kMaxId));
  options.group = static_cast<int>(cli.count_or("--group", -1, 0, kMaxId));

  const double window_start = cli.number_or("--window-start", 0.0);
  const double window_end =
      cli.get("--window-length")
          ? window_start + cli.number_or("--window-length", 0.0)
          : std::numeric_limits<double>::infinity();
  const auto max_jobs =
      static_cast<std::size_t>(cli.count_or("--max-jobs", 0, 0, 1LL << 53));

  std::ifstream is(*in);
  if (!is) {
    std::fprintf(stderr, "gridsub-swfconvert: cannot open %s\n", in->c_str());
    return 2;
  }
  const auto slash = in->find_last_of('/');
  traces::Workload w(cli.get_or(
      "--name", slash == std::string::npos ? *in : in->substr(slash + 1)));

  // One streaming pass: filter (reader) -> window -> sample -> cap. Only
  // kept jobs are materialized; everything else costs a line parse.
  stats::Rng rng(
      static_cast<std::uint64_t>(cli.count_or("--seed", 1, 0, 1LL << 53)));
  traces::SwfReadReport report;
  traces::for_each_swf_job(
      is, options,
      [&](const traces::WorkloadJob& job) {
        if (job.arrival < window_start || job.arrival >= window_end) {
          return true;
        }
        if (sample_p < 1.0 && !rng.bernoulli(sample_p)) return true;
        w.add_job(job.arrival - window_start, job.runtime, job.user,
                  job.group);
        return max_jobs == 0 || w.size() < max_jobs;
      },
      &report);
  std::fprintf(
      stderr, "read %s: kept %zu of %zu jobs (%zu filtered, %zu dropped%s)\n",
      in->c_str(), w.size(), report.lines, report.filtered, report.dropped,
      max_jobs != 0 && w.size() >= max_jobs ? ", capped by --max-jobs" : "");

  const double time_scale = cli.number_or("--time-scale", 1.0);
  if (time_scale != 1.0) w.scale_time(time_scale);
  const double runtime_scale = cli.number_or("--runtime-scale", 1.0);
  if (runtime_scale != 1.0) w.scale_runtime(runtime_scale);
  w.sort_by_arrival();
  w.rebase_to_zero();

  if (w.empty()) {
    std::fprintf(stderr, "gridsub-swfconvert: no jobs survived the "
                         "filter/window/sample pipeline\n");
    return 1;
  }
  const auto stats = w.stats();
  std::fprintf(stderr,
               "result: %zu jobs over %.0f s — mean rate %.4f/s, peak "
               "hourly %.4f/s, burstiness %.2f, mean runtime %.0f s\n",
               stats.jobs, stats.duration, stats.mean_rate,
               stats.peak_hourly_rate, stats.burstiness, stats.mean_runtime);
  if (cli.flag("--stats")) return 0;

  if (const auto out = cli.get("--out")) {
    traces::write_workload_csv_file(*out, w);
    std::fprintf(stderr, "wrote %s\n", out->c_str());
  } else {
    traces::write_workload_csv(std::cout, w);
  }
  return 0;
} catch (const std::exception& e) {
  // A library error (unreadable input, bad parameter) ends in one line.
  std::fprintf(stderr, "gridsub-swfconvert: %s\n", e.what());
  return 1;
}
