// Microbenchmarks of the library primitives (google-benchmark): model
// construction, E_J evaluation, optimizers, Monte Carlo throughput, DES
// event rate. These quantify the costs the ablation benches trade off.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost.hpp"
#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "core/planner.hpp"
#include "exp/experiment.hpp"
#include "mc/mc_engine.hpp"
#include "model/discretized.hpp"
#include "sim/computing_element.hpp"
#include "sim/event_queue.hpp"
#include "sim/grid.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "traces/datasets.hpp"
#include "traces/scenarios.hpp"

namespace {

using namespace gridsub;

const traces::Trace& trace_2006() {
  static const traces::Trace t = traces::make_trace_by_name("2006-IX");
  return t;
}

const model::DiscretizedLatencyModel& model_2006() {
  static const auto m =
      model::DiscretizedLatencyModel::from_trace(trace_2006(), 1.0);
  return m;
}

void BM_TraceGeneration(benchmark::State& state) {
  const auto& config = traces::dataset_by_name("2007-52");
  for (auto _ : state) {
    benchmark::DoNotOptimize(traces::make_trace(config));
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_ModelBuild(benchmark::State& state) {
  const double step = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::DiscretizedLatencyModel::from_trace(trace_2006(), step));
  }
}
BENCHMARK(BM_ModelBuild)->Arg(1)->Arg(5)->Arg(25);

void BM_SingleExpectation(benchmark::State& state) {
  const auto& m = model_2006();
  const core::MultipleSubmission s(m, 1);
  double t = 300.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.expectation(t));
    t = (t < 2000.0) ? t + 1.0 : 300.0;
  }
}
BENCHMARK(BM_SingleExpectation);

void BM_MultipleOptimize(benchmark::State& state) {
  const auto& m = model_2006();
  const int b = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::MultipleSubmission multi(m, b);
    benchmark::DoNotOptimize(multi.optimize());
  }
}
BENCHMARK(BM_MultipleOptimize)->Arg(1)->Arg(5)->Arg(20);

void BM_DelayedExpectation(benchmark::State& state) {
  const auto& m = model_2006();
  const core::DelayedResubmission d(m);
  double t0 = 200.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.expectation(t0, 1.6 * t0));
    t0 = (t0 < 800.0) ? t0 + 1.0 : 200.0;
  }
}
BENCHMARK(BM_DelayedExpectation);

void BM_DelayedOptimize(benchmark::State& state) {
  const auto& m = model_2006();
  const core::DelayedResubmission d(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.optimize());
  }
}
BENCHMARK(BM_DelayedOptimize);

void BM_CostOptimum(benchmark::State& state) {
  const auto& m = model_2006();
  for (auto _ : state) {
    core::CostModel cost(m);
    benchmark::DoNotOptimize(cost.optimize_delayed_cost());
  }
}
BENCHMARK(BM_CostOptimum)->Unit(benchmark::kMillisecond);

void BM_Recommend(benchmark::State& state) {
  // The tuning of one advisor refit: recommend() on a 200-observation
  // window censored at a 4000 s timeout and discretized at 20 s.
  traces::Trace window("refit-window", 4000.0);
  for (const traces::ProbeRecord& r : trace_2006().records()) {
    if (window.size() == 200) break;
    if (r.status == traces::ProbeStatus::kCompleted &&
        r.latency < window.timeout()) {
      window.add_completed(0.0, r.latency);
    } else {
      window.add_outlier(0.0);
    }
  }
  const auto m = model::DiscretizedLatencyModel::from_trace(window, 20.0);
  const core::StrategyPlanner planner(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.recommend());
  }
}
BENCHMARK(BM_Recommend)->Unit(benchmark::kMillisecond);

void BM_McDelayed(benchmark::State& state) {
  const auto& m = model_2006();
  mc::McOptions options;
  options.replications = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc::simulate_delayed(m, 300.0, 500.0, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// The replications run on the MC pool, so the rate must come from wall
// time: main-thread CPU time would count only the wait.
BENCHMARK(BM_McDelayed)->Arg(10000)->Arg(100000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// DES core microbenches. The event callbacks capture a payload sized like
// the real hot events (ComputingElement's completion lambda: object pointer
// + job handle + a stored std::function) so allocation behaviour matches
// the simulation, not a toy captureless lambda.
struct EventPayload {
  void* owner;
  std::uint64_t handle;
  std::uint64_t filler[4];
};

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  const EventPayload payload{&sink, 42, {1, 2, 3, 4}};
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      q.push(static_cast<double>((i * 7919) % 997),
             [&sink, payload] { sink += payload.handle; });
    }
    while (!q.empty()) q.pop().fn();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventQueueCancelStorm(benchmark::State& state) {
  // The timeout-strategy pattern: schedule a timeout, the job starts first,
  // cancel and reschedule — millions of times per simulated week.
  sim::EventQueue q;
  std::uint64_t sink = 0;
  const EventPayload payload{&sink, 7, {1, 2, 3, 4}};
  q.push(1e18, [] {});  // one long-lived survivor keeps the queue non-empty
  constexpr int kBatch = 256;
  double t = 1.0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const sim::EventId id =
          q.push(t + i, [&sink, payload] { sink += payload.handle; });
      benchmark::DoNotOptimize(q.cancel(id));
    }
    t += 1.0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_EventQueueCancelStorm);

/// Adds `value` to `*sink`; small enough for SmallFn's inline buffer, like
/// the real job-path callbacks.
struct Bump {
  std::uint64_t* sink;
  std::uint64_t value;
  void operator()() const { *sink += value; }
};

void BM_EventQueueHold(benchmark::State& state) {
  // The hold model of a running DES: pop the earliest event, push one at
  // now + Exp(mean 2,200 s), so N events stay pending. N = 1,024 is about
  // a crossweek grid's pending events, 524,288 des_scale's peak. The gaps
  // are drawn up front, so the loop times the queue alone, and N holds
  // run before timing, so the measured queue is in its steady state.
  sim::EventQueue q;
  const auto pending = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(20090611);
  std::vector<double> gaps(std::size_t{1} << 16);
  for (double& gap : gaps) gap = rng.exponential(1.0 / 2200.0);
  std::size_t next = 0;
  const auto gap = [&gaps, &next] { return gaps[next++ & (gaps.size() - 1)]; };
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < pending; ++i) q.push(gap(), Bump{&sink, i});
  const auto hold = [&q, &gap, &sink] {
    sim::EventQueue::Fired fired = q.pop();
    fired.fn();
    q.push(fired.time + gap(), Bump{&sink, 1});
  };
  for (std::size_t i = 0; i < pending; ++i) hold();
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) hold();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_EventQueueHold)->Arg(1024)->Arg(1 << 19);

/// Shared state for BM_MillionClientTick's self-rearming timeouts.
struct TickCtx {
  sim::EventQueue* q;
  std::vector<sim::EventId>* armed;
  double now = 0.0;
  std::uint64_t fired = 0;
};

/// A client's t_inf timeout: when it fires, the client starts its next
/// round and arms the next timeout. Small enough for SmallFn's inline
/// buffer, like the real strategy-client callbacks.
struct Rearm {
  TickCtx* ctx;
  std::uint32_t i;
  void operator()() const {
    ++ctx->fired;
    const double jitter =
        static_cast<double>((i * 2654435761u) % 4096u) * 0.2;
    (*ctx->armed)[i] =
        ctx->q->push(ctx->now + 600.0 + jitter, Rearm{ctx, i});
  }
};

void BM_MillionClientTick(benchmark::State& state) {
  // One tick of an N-client grid in the timeout-heavy steady state
  // (delayed/multiple mix): the earliest pending timeout fires and its
  // owner re-arms the next round, while kChurn clients whose copies got
  // seats cancel their timeouts and re-arm later ones — the b=3 pattern
  // where a settled task cancels its sibling copies' timeouts. The live
  // population stays at exactly N, so every pop, cancel and arm sifts
  // through log2(N) cache-missing levels of one big heap.
  sim::EventQueue q;
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventId> armed(pending);
  TickCtx ctx{&q, &armed, 0.0, 0};
  for (std::size_t i = 0; i < pending; ++i) {
    // Shuffled push order (odd multiplier, power-of-two modulus): the
    // heap starts structurally random, as after a long run, instead of
    // the artificially cache-friendly ascending layout.
    const std::size_t j = (i * 2654435761u) % pending;
    armed[j] = q.push(
        600.0 + 900.0 * static_cast<double>(j) / static_cast<double>(pending),
        Rearm{&ctx, static_cast<std::uint32_t>(j)});
  }
  std::size_t slot = 0;
  constexpr int kChurn = 3;  ///< timeouts canceled per settled task
  const auto tick = [&q, &ctx, &armed, &slot, pending] {
    auto fired = q.pop();
    ctx.now = fired.time;
    fired.fn();
    for (int c = 0; c < kChurn; ++c) {
      const auto j = static_cast<std::uint32_t>(slot);
      if (q.cancel(armed[j])) {
        const double jitter =
            static_cast<double>((j * 1779033703u) % 4096u) * 0.2;
        armed[j] = q.push(ctx.now + 600.0 + jitter, Rearm{&ctx, j});
      }
      // Full-cycle pseudo-random walk: cancels hit timeouts of every
      // age, not just the ones about to surface at the heap head.
      slot = (slot + 2654435761u) % pending;
    }
  };
  // Cycle the initial population once so the measured window sees the
  // steady state — a heap shaped by arbitrary-position cancels — not the
  // artificially clean start-up phase.
  while (ctx.now < 1600.0) tick();
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) tick();
  }
  benchmark::DoNotOptimize(ctx.fired);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(kBatch * (1 + 2 * kChurn)),
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_MillionClientTick)->Arg(1 << 17)->Arg(1 << 20);

void BM_CeSubmitCancel(benchmark::State& state) {
  // Submit into a saturated CE and cancel while queued — the strategy
  // clients' dominant interaction with the batch queue.
  sim::Simulator des;
  sim::ComputingElement ce(des, "bench-ce", 4, 0.0, stats::Rng(1));
  for (int i = 0; i < 4; ++i) ce.submit(1e18, nullptr);  // pin all slots
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const auto handle = ce.submit(10.0, nullptr);
      benchmark::DoNotOptimize(ce.cancel(handle));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_CeSubmitCancel);

void BM_DelayedTuneFit(benchmark::State& state) {
  // One campaign fit-stage unit: build the strategy evaluator (survival
  // prefix grids) and tune (t0, t_inf): a 96 x 40 grid read off one overlap
  // row per t0, then a few hundred one-shot Nelder-Mead evaluations.
  const auto& m = model_2006();
  for (auto _ : state) {
    const core::DelayedResubmission d(m);
    benchmark::DoNotOptimize(d.optimize());
  }
}
BENCHMARK(BM_DelayedTuneFit)->Unit(benchmark::kMillisecond);

void BM_ScenarioWeekCell(benchmark::State& state) {
  // One full trace-replay campaign cell (the unit every campaign grid is
  // made of): replayed diurnal week on the egee_like grid, warm-up, one
  // delayed-resubmission client to the horizon.
  static const exp::ScenarioCase scenario = [] {
    traces::ScenarioConfig scen;
    scen.base_rate = 0.30;
    scen.seed = 20090611;
    exp::ScenarioCase sc;
    sc.label = "diurnal-week";
    sc.grid = sim::GridConfig::egee_like();
    sc.grid.background.arrival_rate = 0.0;
    sc.workload = std::make_shared<const traces::Workload>(
        traces::make_scenario("diurnal-week", scen));
    return sc;
  }();
  sim::StrategySpec strategy;
  strategy.kind = core::StrategyKind::kDelayedResubmission;
  strategy.t0 = 900.0;
  strategy.t_inf = 1500.0;
  exp::ClientConfig clients;
  clients.warm_up = 6.0 * 3600.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exp::run_strategy_cell(scenario, strategy, clients, 20090611));
  }
}
BENCHMARK(BM_ScenarioWeekCell)->Unit(benchmark::kMillisecond);

void BM_PathDelay(benchmark::State& state) {
  // One matchmaking delay of the egee_like network (5 hops, mean 25 s,
  // shape 1.2): drawn once for every job the WMS accepts.
  const sim::NetworkModel network(sim::GridConfig::egee_like().wms.network);
  stats::Rng rng(20090611);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.sample_path_delay(rng));
  }
}
BENCHMARK(BM_PathDelay);

void BM_DesEventRate(benchmark::State& state) {
  for (auto _ : state) {
    sim::GridConfig config = sim::GridConfig::egee_like();
    config.background.arrival_rate = 0.5;
    sim::GridSimulation grid(config);
    grid.warm_up(50000.0);
    benchmark::DoNotOptimize(grid.simulator().processed_events());
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(grid.simulator().processed_events()),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_DesEventRate)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
