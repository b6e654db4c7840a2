// advisor: the serving stack, with writes beside reads.
//
//   set-up  an 86,400 s diurnal scenario (traces) and a fresh
//           AdvisorService, several times for a steady set-up figure;
//   warm    serve::replay_feed of the scenario: 2 ingest threads plus the
//           background refresher (serve, online, core). Refit-bound;
//   serve   advise-only requests through InProcessTransport and one
//           RequestLoop: a closed loop (one generator keeping 64 requests
//           outstanding) for serve_rps, then an open loop at one fixed
//           rate far below capacity for advise_p50_us, timed from each
//           request's due time. One reply taker. One writer ingests a
//           fixed count of observations at a paced rate and calls
//           refresh_now() every 128, with the background refresher
//           stopped. Four threads: generator, taker, loop, writer.
//
// The gated rate is the warm phase's ingest_obs_per_s. The serving path
// is printed but not gated: on a shared 4-vCPU VM the closed loop, bound
// by the transport's mutex and condvar hand-offs, read 130-490 k
// requests/s across runs of the same code, and even lookups through one
// Reader (traced: serve.advise_ns) came out at either about 13 M/s or
// about 18 M/s per process.
//
// kStats requests are left out of the mix: one stats() call waits for a
// refit holding the service mutex and stalls the loop behind it, which
// made p50 swing by an order of magnitude across identical runs. The
// traced run measures that wait directly (serve.stats_us).
//
// Checks: no torn stamp, every request answered kOk, every key ready after
// the warm phase, and each key's advice checked three ways:
//   pinned     at the recorded seed, (kind, t0, t∞, E_J) within stated
//              tolerances of the values recorded below;
//   empirical  at every seed, E_J within a band of the driver's own
//              estimate on the key's window sample (no library code), and
//              the advice no costlier than plain resubmission at its
//              empirical optimum: a wrong kind or a bad optimum fails here;
//   plumbing   at every seed, equal to StrategyPlanner::recommend on the
//              window the planner's documented refit cadence last fitted.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <semaphore>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/planner.hpp"
#include "model/discretized.hpp"
#include "serve/advisor.hpp"
#include "serve/replay_feed.hpp"
#include "serve/request_loop.hpp"
#include "traces/scenarios.hpp"
#include "traces/trace.hpp"

namespace perfbench {
namespace {

using namespace gridsub;

constexpr int kSetupRepeats = 25;
constexpr std::ptrdiff_t kOutstanding = 64;
constexpr double kOpenRate = 50'000.0;  // requests per second
constexpr double kWriterRate = 1'000.0;  // observations per second
constexpr std::size_t kRefreshEvery = 128;
constexpr std::size_t kAdviseLookups = 2'000'000;

// Reference tolerances (relative): E_J is what the user is promised;
// t0 / t∞ sit on flat optima, so they get more room.
constexpr double kExpectationTolerance = 0.02;
constexpr double kTimeoutTolerance = 0.10;
// Pinned values: loose enough for tuning-kernel changes that move
// quadrature nodes, which shift optima along their flat valleys.
constexpr double kPinnedExpectationTolerance = 0.02;
constexpr double kPinnedTimeoutTolerance = 0.20;
// Empirical band: the library fits F̃ on a 20 s grid, the driver uses the
// raw window sample (E_J agreed within 0.6 % and delta_cost within 0.8 %
// on every key of seeds 1-24 and the recorded seed; the advised
// delta_cost read 0.79-0.98).
constexpr double kEmpiricalExpectationTolerance = 0.05;
constexpr double kEmpiricalCostTolerance = 0.05;

/// One key's advice after the warm phase at the recorded seed, full size.
struct PinnedAdvice {
  const char* key;  ///< "vo/site/user_class"
  core::StrategyKind kind;
  double t0;
  double t_inf;
  double expectation;
};

constexpr auto kDelayed = core::StrategyKind::kDelayedResubmission;
constexpr PinnedAdvice kPinned[] = {
    {"vo0/lpc/uc0", kDelayed, 402.0, 804.0, 401.7088},
    {"vo0/lpc/uc1", kDelayed, 387.0, 774.0, 387.0216},
    {"vo0/nikhef/uc0", kDelayed, 393.0, 786.0, 392.5234},
    {"vo0/nikhef/uc1", kDelayed, 424.0, 848.0, 423.6553},
    {"vo1/lpc/uc0", kDelayed, 381.0, 762.0, 380.7138},
    {"vo1/lpc/uc1", kDelayed, 402.0, 800.0, 401.8553},
    {"vo1/nikhef/uc0", kDelayed, 345.0, 686.0, 344.6386},
    {"vo1/nikhef/uc1", kDelayed, 368.0, 736.0, 367.6683},
    {"vo2/lpc/uc0", kDelayed, 369.0, 738.0, 368.6545},
    {"vo2/lpc/uc1", kDelayed, 403.0, 803.0, 402.7222},
    {"vo2/nikhef/uc0", kDelayed, 359.0, 718.0, 358.8840},
    {"vo2/nikhef/uc1", kDelayed, 391.0, 780.0, 391.1078},
};

struct Sizes {
  double scenario_s;
  std::size_t closed_requests;
  std::size_t open_requests;
  std::size_t writer_observations;
};

serve::AdvisorConfig advisor_config() {
  serve::AdvisorConfig config;
  config.planner.window = 200;
  config.planner.min_observations = 60;
  config.planner.refit_interval = 60;
  config.planner.model_step = 20.0;
  config.planner.timeout = 4000.0;
  config.refresh_pending = 128;
  return config;
}

/// Sum of every "refits" field of an advisor dump.
double dump_refits(const serve::AdvisorService& service) {
  std::ostringstream os;
  service.dump_json(os);
  const std::string dump = os.str();
  const std::string field = "\"refits\": ";
  double total = 0.0;
  for (std::size_t at = dump.find(field); at != std::string::npos;
       at = dump.find(field, at + 1)) {
    total += std::strtod(dump.c_str() + at + field.size(), nullptr);
  }
  return total;
}

bool within(double value, double reference, double tolerance) {
  return std::abs(value - reference) <=
         tolerance * std::max(std::abs(reference), 1.0);
}

/// One key's window sample as the driver sees it, without the library's
/// model: s(x) is the share of the window not started by x (outliers never
/// start). Expectations are the strategies' renewal forms, integrated on
/// a 1 s midpoint grid:
///   single / multiple (b copies, timeout t∞):
///     E_J = ∫₀^t∞ s^b / (1 - s(t∞)^b)
///   delayed (period t0, cancel at t∞, t0 < t∞ <= 2·t0), q = s(t∞):
///     E_J = ∫₀^t0 s + ∫₀^t0 s(min(u + t0, t∞))·s(u) du / (1 - q)
class EmpiricalWindow {
 public:
  EmpiricalWindow(std::vector<double> started, std::size_t total,
                  double horizon, double step)
      : started_(std::move(started)),
        total_(static_cast<double>(total)),
        step_(std::max<std::size_t>(1, static_cast<std::size_t>(step))) {
    std::sort(started_.begin(), started_.end());
    const auto cells = static_cast<std::size_t>(horizon);
    prefix_.assign(cells + 1, 0.0);
    for (std::size_t k = 0; k < cells; ++k) {
      prefix_[k + 1] = prefix_[k] + s(static_cast<double>(k) + 0.5);
    }
  }

  [[nodiscard]] double s(double x) const {
    const auto done = std::upper_bound(started_.begin(), started_.end(), x) -
                      started_.begin();
    return 1.0 - static_cast<double>(done) / total_;
  }

  [[nodiscard]] double expectation(const serve::Advice& a) const {
    if (a.kind == core::StrategyKind::kDelayedResubmission) {
      double overlap = 0.0;
      for (double u = 0.5; u < a.t0; u += 1.0) {
        overlap += s(std::min(u + a.t0, a.t_inf)) * s(u);
      }
      return integral(a.t0) + overlap / (1.0 - s(a.t_inf));
    }
    const int b = a.kind == core::StrategyKind::kMultipleSubmission ? a.b : 1;
    double area = 0.0;
    for (double u = 0.5; u < a.t_inf; u += 1.0) area += std::pow(s(u), b);
    return area / (1.0 - std::pow(s(a.t_inf), b));
  }

  /// Paper eq. 6 against single resubmission at its empirical optimum,
  /// with N∥ at l = E_J (§6.1) as the planner accounts it.
  [[nodiscard]] double delta_cost(const serve::Advice& a) const {
    const double e = expectation(a);
    double n_parallel = 1.0;
    if (a.kind == core::StrategyKind::kMultipleSubmission) {
      n_parallel = a.b;
    } else if (a.kind == core::StrategyKind::kDelayedResubmission) {
      double busy = 0.0;
      for (double k = 0.0; k * a.t0 <= e; k += 1.0) {
        busy += std::min(e - k * a.t0, a.t_inf);
      }
      n_parallel = busy / e;
    }
    return n_parallel * e / best_single();
  }

  /// min of single-resubmission E_J over t∞ on the model's step grid. A
  /// finer grid would exploit the step function itself: one sample at
  /// 0.5 s makes t∞ = 1 s "worth" E_J = 200 s on a 200-sample window.
  [[nodiscard]] double best_single() const {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t t = step_; t < prefix_.size(); t += step_) {
      const double fail = s(static_cast<double>(t));
      if (fail < 1.0) best = std::min(best, prefix_[t] / (1.0 - fail));
    }
    return best;
  }

 private:
  [[nodiscard]] double integral(double t) const {
    const auto whole = std::min(static_cast<std::size_t>(t), prefix_.size() - 1);
    return prefix_[whole] +
           (t - static_cast<double>(whole)) * s(static_cast<double>(whole) + 0.5);
  }

  std::vector<double> started_;
  double total_;
  std::size_t step_;  ///< t∞ grid of best_single(), s
  std::vector<double> prefix_;  ///< prefix_[k] = ∫₀^k s
};

class Advisor final : public Workload {
 public:
  explicit Advisor(const Options& options)
      : seed_(options.seed),
        pinned_(options.seed == kRecordedSeed && options.size == Size::kFull),
        sizes_(options.size == Size::kTiny
                   ? Sizes{21600.0, 60'000, 5'000, 384}
                   : Sizes{86400.0, 600'000, 50'000, 1'536}) {}

  [[nodiscard]] unsigned threads() const override { return 4; }

  /// Every iteration builds its own scenario, service, transport and
  /// threads, and the process stays under 7 MiB: there is nothing for a
  /// first iteration to warm, so all of them are timed.
  [[nodiscard]] bool warm_up() const override { return false; }

  Iteration run_iteration(Tracer* tracer, std::uint32_t iteration,
                          Outcome& outcome) override {
    Iteration it;
    const serve::AdvisorConfig config = advisor_config();
    serve::ReplayFeedConfig feed;
    feed.ingest_threads = 2;
    traces::Workload workload;
    std::vector<serve::AdvisorKey> keys;
    std::unique_ptr<serve::AdvisorService> service;
    for (int r = 0; r < kSetupRepeats; ++r) {
      const Clock::time_point t = Clock::now();
      {
        const Tracer::Scope span(tracer, "traces.scenario_gen");
        traces::ScenarioConfig scen;
        scen.duration = sizes_.scenario_s;
        scen.base_rate = 0.25;
        scen.runtime_mean = 600.0;
        scen.seed = mix_seed(seed_, 500);
        workload = traces::make_scenario("diurnal-week", scen);
      }
      std::set<serve::AdvisorKey> distinct;
      std::size_t index = 0;
      for (const traces::WorkloadJob& job : workload.jobs()) {
        distinct.insert(serve::key_for_job(job, index++, feed));
      }
      keys.assign(distinct.begin(), distinct.end());
      service.reset();
      service = std::make_unique<serve::AdvisorService>(config);
      it.setup_s.push_back(seconds_since(t));
    }

    const double warm_s = warm_phase(*service, workload, feed, tracer, outcome);
    check_advice(*service, workload, feed, keys, iteration == 0, tracer,
                 outcome);
    if (tracer != nullptr) tracer->count("online.refits", dump_refits(*service));

    const ServeFigures serve = serve_phase(*service, keys, tracer, outcome);
    if (tracer != nullptr) {
      const serve::AdvisorStats stats = service->stats();
      tracer->count("serve.swaps", static_cast<double>(stats.swaps));
      tracer->count("serve.staleness_max",
                    static_cast<double>(stats.staleness_max));
      measure_advise(*service, keys, tracer);
    }

    const auto jobs = static_cast<double>(workload.size());
    it.wall_s = warm_s;
    it.rate_per_s = jobs / warm_s;
    it.named = {{"ingest_obs_per_s", it.rate_per_s, "1/s"},
                {"warm_s", warm_s, "s"},
                {"serve_rps", serve.rps, "1/s"},
                {"advise_p50_us", serve.p50_us, "us"},
                {"advise_p99_us", serve.p99_us, "us"},
                {"open_loop_samples",
                 static_cast<double>(sizes_.open_requests), "count"},
                {"generator_late_max_us", serve.late_max_us, "us"}};
    return it;
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(
      const Tracer& tracer, std::uint32_t iteration) const override {
    const std::vector<SpanRecord> spans = tracer.spans();
    const std::vector<CounterRecord> counters = tracer.counters();
    auto d = [&](const char* name) {
      return span_durations_s(tracer, spans, name, iteration);
    };
    auto count = [&](const char* name) {
      return counter_sum(counters, name, iteration);
    };
    const std::vector<double> feed = d("serve.replay_feed");
    const std::vector<double> ingest = d("serve.ingest");
    const std::vector<double> refresh = d("serve.refresh_now");
    const std::vector<double> stats = d("serve.stats");
    const std::vector<double> requests = d("serve.request");
    const std::vector<double> advise = d("serve.advise");
    return {
        {"traces.scenario_gen_s", median(d("traces.scenario_gen")), "s"},
        {"serve.replay_feed_s", feed.empty() ? 0.0 : feed.front(), "s"},
        {"serve.ingest_us.p50", percentile(ingest, 0.50) * 1e6, "us"},
        {"serve.ingest_us.p99", percentile(ingest, 0.99) * 1e6, "us"},
        {"online.refits", count("online.refits"), "count"},
        {"core.recommend_ms", median(d("core.recommend")) * 1e3, "ms"},
        {"serve.refresh_now_ms.p50", percentile(refresh, 0.50) * 1e3, "ms"},
        {"serve.refresh_now_ms.p99", percentile(refresh, 0.99) * 1e3, "ms"},
        {"serve.swaps", count("serve.swaps"), "count"},
        {"serve.staleness_max", count("serve.staleness_max"), "count"},
        {"serve.advise_ns",
         advise.empty() ? 0.0
                        : advise.front() * 1e9 /
                              static_cast<double>(kAdviseLookups),
         "ns"},
        {"serve.stats_us.p50", percentile(stats, 0.50) * 1e6, "us"},
        {"serve.stats_us.p99", percentile(stats, 0.99) * 1e6, "us"},
        {"serve.advise_us.p50", percentile(requests, 0.50) * 1e6, "us"},
        {"serve.advise_us.p99", percentile(requests, 0.99) * 1e6, "us"},
        {"serve.generator_late_us.max", count("serve.generator_late_max_us"),
         "us"},
    };
  }

 private:
  struct ServeFigures {
    double rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double late_max_us = 0.0;
  };

  /// Replays the scenario into the service; returns the feed's wall time.
  /// Traced: each ingest is timed between consecutive fault-hook calls of
  /// its shard (the hook fires just before every ingest), and a poller
  /// times stats() while refits run.
  double warm_phase(serve::AdvisorService& service,
                    const traces::Workload& workload,
                    serve::ReplayFeedConfig feed, Tracer* tracer,
                    Outcome& outcome) {
    service.start_refresher();
    serve::ReplayFeedReport report;
    const Clock::time_point start = Clock::now();
    {
      const Tracer::Scope span(tracer, "serve.replay_feed");
      std::vector<Clock::time_point> last(feed.ingest_threads);
      std::vector<std::uint64_t> last_job(feed.ingest_threads, 0);
      std::jthread poller;  // joins on scope exit, exceptions included
      if (tracer != nullptr) {
        feed.fault_hook = [&, parent = span.id()](std::size_t shard,
                                                  std::uint64_t job) {
          const Clock::time_point now = Clock::now();
          if (last[shard] != Clock::time_point{}) {
            tracer->record("serve.ingest", last[shard], now,
                           last_job[shard] + 1, parent);
          }
          last[shard] = now;
          last_job[shard] = job;
        };
        poller = std::jthread([&, parent = span.id()](std::stop_token stop) {
          while (!stop.stop_requested()) {
            const Clock::time_point t = Clock::now();
            (void)service.stats();
            tracer->record("serve.stats", t, Clock::now(), 0, parent);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        });
      }
      report = serve::replay_feed(service, workload, feed);
    }
    const double warm_s = seconds_since(start);
    // Fold the tail so the published snapshot reflects every observation.
    service.stop_refresher();
    (void)service.refresh_now();

    outcome.attempted += workload.size();
    outcome.check(report.jobs == workload.size(),
                  "advisor: replay_feed consumed " +
                      std::to_string(report.jobs) + " of " +
                      std::to_string(workload.size()) + " jobs");
    return warm_s;
  }

  /// Every key ready, and its advice checked against the pinned values,
  /// the empirical band and an offline recommend() on the 200-observation
  /// window the planner last refitted on (refits fall on every
  /// refit_interval-th observation of a key). `report` prints each key's
  /// advice beside the driver's own estimate.
  void check_advice(serve::AdvisorService& service,
                    const traces::Workload& workload,
                    const serve::ReplayFeedConfig& feed,
                    const std::vector<serve::AdvisorKey>& keys, bool report,
                    Tracer* tracer, Outcome& outcome) {
    const online::OnlinePlannerConfig& planner = service.config().planner;
    std::map<serve::AdvisorKey, std::vector<double>> observed;
    std::size_t index = 0;
    for (const traces::WorkloadJob& job : workload.jobs()) {
      observed[serve::key_for_job(job, index++, feed)].push_back(
          job.runtime * feed.latency_scale);
    }
    const serve::AdvisorService::Reader reader(service);
    for (const serve::AdvisorKey& key : keys) {
      const std::string name = key.vo + "/" + key.site + "/" + key.user_class;
      const serve::Advice a = reader.advise(key);
      outcome.check(a.ready, "advisor: key " + name + " not ready");
      const std::vector<double>& seen = observed[key];
      const std::size_t end =
          seen.size() - seen.size() % planner.refit_interval;
      if (!a.ready || end < planner.min_observations) continue;
      traces::Trace window("online-window", planner.timeout);
      std::vector<double> started;
      const std::size_t begin = end - std::min(end, planner.window);
      for (std::size_t i = begin; i < end; ++i) {
        if (seen[i] >= 0.0 && seen[i] < planner.timeout) {
          window.add_completed(0.0, seen[i]);
          started.push_back(seen[i]);
        } else {
          window.add_outlier(0.0);
        }
      }
      char what[320];

      const EmpiricalWindow empirical(std::move(started), end - begin,
                                      planner.timeout, planner.model_step);
      const double empirical_ej = empirical.expectation(a);
      const double empirical_cost = empirical.delta_cost(a);
      if (report) {
        std::printf("advice %s: %s t0 %.3f t_inf %.3f b %d E_J %.4f "
                    "delta_cost %.4f | empirical E_J %.4f delta_cost %.4f\n",
                    name.c_str(), std::string(core::to_string(a.kind)).c_str(),
                    a.t0, a.t_inf, a.b, a.expectation, a.delta_cost,
                    empirical_ej, empirical_cost);
      }
      std::snprintf(what, sizeof(what),
                    "advisor: key %s advised E_J %.2f vs empirical %.2f "
                    "(band %.0f%%), delta_cost %.3f vs plain resubmission "
                    "(band %.0f%%)",
                    name.c_str(), a.expectation, empirical_ej,
                    100.0 * kEmpiricalExpectationTolerance, empirical_cost,
                    100.0 * kEmpiricalCostTolerance);
      outcome.check(within(a.expectation, empirical_ej,
                           kEmpiricalExpectationTolerance) &&
                        empirical_cost <= 1.0 + kEmpiricalCostTolerance,
                    what);

      if (pinned_) {
        const auto pin = std::find_if(
            std::begin(kPinned), std::end(kPinned),
            [&](const PinnedAdvice& p) { return name == p.key; });
        if (pin == std::end(kPinned)) {
          outcome.check(false, "advisor: key " + name + " has no pinned advice");
        } else {
          std::snprintf(what, sizeof(what),
                        "advisor: key %s advised (%s, t0 %.1f, t_inf %.1f, "
                        "E_J %.2f) vs pinned (%s, %.1f, %.1f, %.2f)",
                        name.c_str(),
                        std::string(core::to_string(a.kind)).c_str(), a.t0,
                        a.t_inf, a.expectation,
                        std::string(core::to_string(pin->kind)).c_str(),
                        pin->t0, pin->t_inf, pin->expectation);
          outcome.check(
              a.kind == pin->kind &&
                  within(a.expectation, pin->expectation,
                         kPinnedExpectationTolerance) &&
                  within(a.t0, pin->t0, kPinnedTimeoutTolerance) &&
                  within(a.t_inf, pin->t_inf, kPinnedTimeoutTolerance),
              what);
        }
      }

      const auto fitted =
          model::DiscretizedLatencyModel::from_trace(window, planner.model_step);
      const core::StrategyPlanner reference(fitted);
      const core::CostEvaluation want = [&] {
        const Tracer::Scope span(tracer, "core.recommend");
        return reference.recommend(planner.planner).choice;
      }();
      const bool ok =
          a.kind == want.kind &&
          within(a.expectation, want.expectation, kExpectationTolerance) &&
          within(a.t_inf, want.t_inf, kTimeoutTolerance) &&
          within(a.t0, want.t0, kTimeoutTolerance);
      std::snprintf(what, sizeof(what),
                    "advisor: key %s advised (t0 %.1f, t_inf %.1f, E_J %.2f) "
                    "vs offline recommend (%.1f, %.1f, %.2f)",
                    name.c_str(), a.t0, a.t_inf, a.expectation, want.t0,
                    want.t_inf, want.expectation);
      outcome.check(ok, what);
    }
  }

  ServeFigures serve_phase(serve::AdvisorService& service,
                           const std::vector<serve::AdvisorKey>& keys,
                           Tracer* tracer, Outcome& outcome) {
    const std::size_t n_closed = sizes_.closed_requests;
    const std::size_t n_open = sizes_.open_requests;
    const std::size_t n_writes = sizes_.writer_observations;
    serve::InProcessTransport transport(1024);
    serve::RequestLoop loop(service, transport);
    loop.start();

    // Writer: paced ingest plus an explicit swap every kRefreshEvery.
    std::atomic<std::uint64_t> rejected{0};
    std::jthread writer([&](std::stop_token stop) {
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < n_writes && !stop.stop_requested(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / kWriterRate)));
        const double u =
            static_cast<double>(mix_seed(seed_, 600 + i) >> 11) * 0x1p-53;
        try {
          service.ingest(keys[i % keys.size()], 100.0 + 1900.0 * u);
          if ((i + 1) % kRefreshEvery == 0) {
            const Clock::time_point t = Clock::now();
            (void)service.refresh_now();
            if (tracer != nullptr) {
              tracer->record("serve.refresh_now", t, Clock::now(), 0, 0);
            }
          }
        } catch (const std::exception&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

    // Reply taker: stamps, statuses, open-loop latency from due time.
    std::counting_semaphore<kOutstanding> slots(kOutstanding);
    std::atomic<std::size_t> closed_replies{0};
    std::vector<Clock::time_point> due(n_open);
    std::vector<double> latency_s(n_open, 0.0);
    std::uint64_t torn = 0, not_ok = 0, replies = 0;
    std::jthread taker([&] {
      serve::AdvisorResponse r;
      while (transport.take_reply(r)) {
        const Clock::time_point now = Clock::now();
        ++replies;
        if (serve::advice_stamp(r.advice) != r.advice.stamp) ++torn;
        if (r.status != serve::ResponseStatus::kOk) ++not_ok;
        if (r.id < n_closed) {
          slots.release();
          if (closed_replies.fetch_add(1, std::memory_order_release) + 1 ==
              n_closed) {
            closed_replies.notify_one();
          }
        } else {
          const std::size_t k = r.id - n_closed;
          latency_s[k] = seconds_between(due[k], now);
          if (tracer != nullptr) {
            tracer->record("serve.request", due[k], now, r.id + 1, 0);
          }
        }
      }
    });

    // However this scope exits, close the transport first so the taker
    // and the loop drain and stop before they are joined.
    struct CloseOnExit {
      serve::InProcessTransport& transport;
      ~CloseOnExit() { transport.close(); }
    } close_on_exit{transport};

    // Generator (this thread). Closed loop first.
    serve::AdvisorRequest request;
    request.type = serve::AdvisorRequest::Type::kAdvise;
    const Clock::time_point closed_start = Clock::now();
    for (std::size_t i = 0; i < n_closed; ++i) {
      slots.acquire();
      request.id = i;
      request.key = keys[i % keys.size()];
      transport.post(request);
    }
    for (std::size_t got = closed_replies.load(std::memory_order_acquire);
         got < n_closed; got = closed_replies.load(std::memory_order_acquire)) {
      closed_replies.wait(got);
    }
    const double closed_s = seconds_since(closed_start);

    // Open loop: request i is due at start + i / rate; the generator spins
    // to each due time and records how late it posted.
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kOpenRate));
    const Clock::time_point open_start =
        Clock::now() + std::chrono::milliseconds(1);
    double late_max = 0.0;
    for (std::size_t k = 0; k < n_open; ++k) {
      due[k] = open_start + period * static_cast<std::int64_t>(k);
      Clock::time_point now = Clock::now();
      while (now < due[k]) now = Clock::now();
      late_max = std::max(late_max, seconds_between(due[k], now));
      request.id = n_closed + k;
      request.key = keys[k % keys.size()];
      transport.post(request);
    }
    if (tracer != nullptr) {
      tracer->count("serve.generator_late_max_us", late_max * 1e6);
    }

    transport.close();
    taker.join();
    loop.join();
    writer.join();

    const std::uint64_t sent = n_closed + n_open;
    outcome.attempted += sent + n_writes;
    outcome.failed += not_ok + (sent - std::min<std::uint64_t>(replies, sent)) +
                      rejected.load();
    outcome.check(torn == 0,
                  "advisor: " + std::to_string(torn) + " torn stamps");
    outcome.check(not_ok == 0, "advisor: " + std::to_string(not_ok) +
                                   " responses other than ok");
    outcome.check(replies == sent && loop.lost_replies() == 0,
                  "advisor: " + std::to_string(replies) + " replies to " +
                      std::to_string(sent) + " requests");
    outcome.check(rejected.load() == 0,
                  "advisor: " + std::to_string(rejected.load()) +
                      " ingests rejected");

    ServeFigures f;
    f.rps = static_cast<double>(n_closed) / closed_s;
    f.p50_us = percentile(latency_s, 0.50) * 1e6;
    f.p99_us = percentile(latency_s, 0.99) * 1e6;
    f.late_max_us = late_max * 1e6;
    return f;
  }

  /// Lookup cost alone: one Reader, a fixed key cycle, no stamp check.
  static void measure_advise(serve::AdvisorService& service,
                             const std::vector<serve::AdvisorKey>& keys,
                             Tracer* tracer) {
    const serve::AdvisorService::Reader reader(service);
    double sink = 0.0;
    {
      const Tracer::Scope span(tracer, "serve.advise");
      for (std::size_t i = 0; i < kAdviseLookups; ++i) {
        sink += reader.advise(keys[i % keys.size()]).t_inf;
      }
    }
    if (!(sink > 0.0)) std::fprintf(stderr, "advisor: empty lookups\n");
  }

  std::uint64_t seed_;
  bool pinned_;  ///< recorded seed at full size: check against kPinned
  Sizes sizes_;
};

}  // namespace

std::unique_ptr<Workload> make_advisor(const Options& options) {
  return std::make_unique<Advisor>(options);
}

}  // namespace perfbench
