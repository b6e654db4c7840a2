// gridsub-tracegen: generate synthetic EGEE-like probe traces as CSV.
//
//   gridsub-tracegen --dataset 2007-51 --out week51.csv
//   gridsub-tracegen --probes 2000 --mean 500 --stddev 700 --rho 0.1
//                    --seed 42 --out custom.csv   (one line)
//
// Either a named paper dataset (calibrated to Table 1) or a custom
// calibration; writes the CSV format read by gridsub-fit / gridsub-plan.

// gridsub-lint: allow-file(printf-float) CLI console diagnostics only

#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "traces/datasets.hpp"
#include "traces/trace_io.hpp"

int main(int argc, char** argv) try {
  using namespace gridsub;
  tools::Cli cli(
      "gridsub-tracegen", "generate synthetic probe traces (CSV)",
      {
          {"--dataset", "paper dataset name (e.g. 2007-51, 2007/08)"},
          {"--out", "output CSV path (default: stdout)"},
          {"--probes", "custom: number of probes, 1 to 10^7 (default 1000)"},
          {"--mean", "custom: target mean latency below timeout (s)"},
          {"--stddev", "custom: target latency std deviation (s)"},
          {"--rho", "custom: outlier ratio in [0,1) (default 0.05)"},
          {"--shift", "custom: latency floor (default 100 s)"},
          {"--seed", "custom: RNG seed, 0 to 2^53 (default 1)"},
          {"--list", "list the named paper datasets and exit"},
      },
      {"--list"});
  cli.parse(argc, argv);

  if (cli.flag("--list")) {
    std::printf("%-10s %8s %10s %10s %8s\n", "name", "probes", "mean(s)",
                "sd(s)", "rho");
    for (const auto& c : traces::all_datasets()) {
      std::printf("%-10s %8zu %10.0f %10.0f %8.3f\n", c.name.c_str(),
                  c.n_probes, c.target_mean, c.target_stddev,
                  c.outlier_ratio);
    }
    std::printf("%-10s %8u (union of the 11 weekly sets)\n", "2007/08",
                8888u);
    return 0;
  }

  traces::Trace trace;
  if (const auto name = cli.get("--dataset")) {
    trace = traces::make_trace_by_name(*name);
  } else if (cli.get("--mean") && cli.get("--stddev")) {
    traces::DatasetConfig config;
    config.name = "custom";
    config.n_probes =
        static_cast<std::size_t>(cli.count_or("--probes", 1000, 1, 10000000));
    config.target_mean = cli.number_or("--mean", 500.0);
    config.target_stddev = cli.number_or("--stddev", 700.0);
    config.outlier_ratio = cli.number_or("--rho", 0.05);
    config.shift = cli.number_or("--shift", 100.0);
    config.seed =
        static_cast<std::uint64_t>(cli.count_or("--seed", 1, 0, 1LL << 53));
    trace = traces::make_trace(config);
  } else {
    std::fprintf(stderr,
                 "need --dataset NAME or both --mean and --stddev "
                 "(see --help)\n");
    return 2;
  }

  if (const auto out = cli.get("--out")) {
    traces::write_csv_file(*out, trace);
    const auto s = trace.stats();
    std::fprintf(stderr,
                 "wrote %zu probes to %s (mean %.0f s, sd %.0f s, "
                 "outliers %.1f%%)\n",
                 trace.size(), out->c_str(), s.mean_completed,
                 s.stddev_completed, 100.0 * s.outlier_ratio);
  } else {
    traces::write_csv(std::cout, trace);
  }
  return 0;
} catch (const std::exception& e) {
  // A library error (unreadable input, bad parameter) ends in one line.
  std::fprintf(stderr, "gridsub-tracegen: %s\n", e.what());
  return 1;
}
