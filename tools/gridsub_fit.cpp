// gridsub-fit: characterize a probe trace — Table-1-style statistics plus
// parametric fits with goodness-of-fit, the workload-modeling step of the
// paper's §3.
//
//   gridsub-fit --in week51.csv
//   gridsub-tracegen --dataset 2006-IX --out - | gridsub-fit --in /dev/stdin

// gridsub-lint: allow-file(printf-float) CLI console diagnostics only

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cli.hpp"
#include "stats/fit.hpp"
#include "stats/lognormal.hpp"
#include "stats/weibull.hpp"
#include "traces/trace_io.hpp"

int main(int argc, char** argv) try {
  using namespace gridsub;
  tools::Cli cli("gridsub-fit",
                 "trace statistics and parametric latency fits",
                 {{"--in", "input trace CSV (required)"}});
  cli.parse(argc, argv);
  const auto in = cli.get("--in");
  if (!in) {
    std::fprintf(stderr, "need --in FILE (see --help)\n");
    return 2;
  }

  const auto trace = traces::read_csv_file(*in);
  if (trace.count(traces::ProbeStatus::kCompleted) < 2) {
    std::fprintf(stderr, "trace has fewer than 2 completed probes\n");
    return 1;
  }
  const auto s = trace.stats();
  std::printf("trace: %s (%zu probes, timeout %.0f s)\n",
              trace.name().c_str(), trace.size(), trace.timeout());
  std::printf("  completed          %zu\n", s.completed);
  std::printf("  outlier ratio rho  %.4f\n", s.outlier_ratio);
  std::printf("  mean   (< timeout) %.1f s\n", s.mean_completed);
  std::printf("  sd     (< timeout) %.1f s\n", s.stddev_completed);
  std::printf("  censored mean      %.1f s  (outliers counted as timeout)\n",
              s.censored_mean);

  const auto xs = trace.completed_latencies();
  std::printf("\nparametric fits of the completed-latency bulk "
              "(MLE; lower KS & AIC are better):\n");
  std::printf("  %-12s %-28s %8s %12s\n", "family", "parameters", "KS",
              "AIC");

  const auto lognormal = stats::fit_lognormal_mle(xs);
  const double ll_ln = stats::log_likelihood(xs, lognormal);
  std::printf("  %-12s mu=%.3f sigma=%.3f          %8.4f %12.1f\n",
              "lognormal", lognormal.mu(), lognormal.sigma(),
              stats::ks_statistic(xs, lognormal), stats::aic(ll_ln, 2));

  const auto weibull = stats::fit_weibull_mle(xs);
  const double ll_wb = stats::log_likelihood(xs, weibull);
  std::printf("  %-12s shape=%.3f scale=%.1f      %8.4f %12.1f\n",
              "weibull", weibull.shape(), weibull.scale(),
              stats::ks_statistic(xs, weibull), stats::aic(ll_wb, 2));

  std::printf(
      "\nnote: strategy tuning (gridsub-plan) uses the raw ECDF — the "
      "paper's approach — so a mediocre parametric fit is informative, "
      "not blocking.\n");
  return 0;
} catch (const std::exception& e) {
  // A library error (unreadable input, bad parameter) ends in one line.
  std::fprintf(stderr, "gridsub-fit: %s\n", e.what());
  return 1;
}
