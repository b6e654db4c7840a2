#include "sched/redundant_client.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace gridsub::sched {

RedundantClient::RedundantClient(sim::GridSimulation& grid,
                                 BaselineSpec spec, std::size_t n_tasks,
                                 double task_runtime)
    : grid_(grid),
      spec_(spec),
      n_tasks_(n_tasks),
      task_runtime_(task_runtime),
      rng_(grid.make_rng()) {
  if (n_tasks == 0) {
    throw std::invalid_argument("RedundantClient: n_tasks == 0");
  }
  if (!(task_runtime > 0.0)) {
    // Slowdown is undefined for zero-length tasks.
    throw std::invalid_argument("RedundantClient: task_runtime <= 0");
  }
  if (spec.k < 1) throw std::invalid_argument("RedundantClient: k < 1");
  if (!(spec.safety_timeout > 0.0)) {
    throw std::invalid_argument("RedundantClient: safety_timeout <= 0");
  }
  if (spec.home_site >= grid.elements().size()) {
    throw std::invalid_argument("RedundantClient: home_site out of range");
  }
  if (spec.info_staleness < 0.0) {
    throw std::invalid_argument("RedundantClient: info_staleness < 0");
  }
  spec_.k = std::min<int>(spec_.k,
                          static_cast<int>(grid.elements().size()));
  outcomes_.reserve(n_tasks);
}

void RedundantClient::start() { start_task(); }

std::vector<std::size_t> RedundantClient::pick_sites() {
  const auto& ces = grid_.elements();
  const std::size_t n = ces.size();
  const auto k = static_cast<std::size_t>(spec_.k);

  if (spec_.scheme == BaselineScheme::kKRandom) {
    // K distinct sites, uniformly (partial Fisher-Yates).
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::size_t>(
                             rng_.uniform_int(static_cast<std::uint64_t>(
                                 n - i)));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }

  // Rank sites by the client's (possibly stale) load view.
  const auto& loads = load_view();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&loads](std::size_t a, std::size_t b) {
                     return loads[a] < loads[b];
                   });

  if (spec_.scheme == BaselineScheme::kKDualQueue) {
    // Home first, then the K-1 least-loaded foreign sites.
    std::vector<std::size_t> sites{spec_.home_site};
    for (const std::size_t s : order) {
      if (sites.size() >= k) break;
      if (s != spec_.home_site) sites.push_back(s);
    }
    return sites;
  }

  order.resize(k);
  return order;
}

const std::vector<double>& RedundantClient::load_view() {
  const auto now = grid_.simulator().now();
  if (snapshot_time_ < 0.0 || now - snapshot_time_ >= spec_.info_staleness) {
    const auto& ces = grid_.elements();
    load_snapshot_.resize(ces.size());
    for (std::size_t i = 0; i < ces.size(); ++i) {
      load_snapshot_[i] = ces[i]->load();
    }
    snapshot_time_ = now;
  }
  return load_snapshot_;
}

void RedundantClient::run_round(std::shared_ptr<BaselineOutcome> outcome,
                                sim::SimTime task_start) {
  // All K copies are submitted as one burst before the client reacts to
  // any start: a real client cannot observe a start mid-burst, and a CE
  // with a free slot starts jobs synchronously. Sites are distinct within
  // a round, so the winner is identified by its site index.
  struct RoundState {
    bool settled = false;
    bool burst_done = false;
    bool has_winner = false;
    std::size_t winner_site = 0;
    std::vector<std::pair<std::size_t, sim::ComputingElement::JobHandle>>
        copies;
    sim::EventId timeout_event = 0;
  };
  auto state = std::make_shared<RoundState>();
  auto& sim = grid_.simulator();
  const auto sites = pick_sites();

  const auto settle = [this, outcome, state,
                       task_start](std::size_t winner_site) {
    state->settled = true;
    grid_.simulator().cancel(state->timeout_event);
    for (const auto& [site, handle] : state->copies) {
      if (site == winner_site) continue;
      grid_.elements()[site]->cancel(handle);
    }
    outcome->latency = grid_.simulator().now() - task_start;
    outcome->slowdown = (outcome->latency + task_runtime_) / task_runtime_;
    finish_task(*outcome);
  };

  const auto on_start = [state, settle](std::size_t site) {
    if (state->settled || state->has_winner) return;
    if (!state->burst_done) {
      // Started synchronously during the burst: remember, settle after.
      state->has_winner = true;
      state->winner_site = site;
      return;
    }
    settle(site);
  };

  const auto& ces = grid_.elements();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::size_t site = sites[i];
    const bool duplicate_lane =
        spec_.scheme == BaselineScheme::kKDualQueue && i > 0;
    outcome->submissions += 1;
    const auto handle = ces[site]->submit(
        task_runtime_, [on_start, site]() { on_start(site); },
        duplicate_lane ? sim::ComputingElement::Lane::kRemote
                       : sim::ComputingElement::Lane::kLocal);
    state->copies.emplace_back(site, handle);
  }
  state->burst_done = true;
  if (state->has_winner) {
    settle(state->winner_site);
    return;
  }

  state->timeout_event = sim.schedule_in(
      spec_.safety_timeout, [this, outcome, state, task_start]() {
        if (state->settled) return;
        state->settled = true;
        for (const auto& [site, handle] : state->copies) {
          grid_.elements()[site]->cancel(handle);
        }
        outcome->rounds += 1;
        run_round(outcome, task_start);
      });
}

void RedundantClient::start_task() {
  auto outcome = std::make_shared<BaselineOutcome>();
  run_round(outcome, grid_.simulator().now());
}

void RedundantClient::finish_task(const BaselineOutcome& outcome) {
  outcomes_.push_back(outcome);
  if (outcomes_.size() < n_tasks_) start_task();
}

double RedundantClient::mean_latency() const {
  if (outcomes_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& o : outcomes_) sum += o.latency;
  return sum / static_cast<double>(outcomes_.size());
}

double RedundantClient::mean_slowdown() const {
  if (outcomes_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& o : outcomes_) sum += o.slowdown;
  return sum / static_cast<double>(outcomes_.size());
}

double RedundantClient::mean_submissions() const {
  if (outcomes_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& o : outcomes_) sum += o.submissions;
  return sum / static_cast<double>(outcomes_.size());
}

}  // namespace gridsub::sched
