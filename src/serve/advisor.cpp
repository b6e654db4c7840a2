#include "serve/advisor.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/json_parse.hpp"
#include "exp/json_util.hpp"

namespace gridsub::serve {

namespace {

/// FNV-1a over the eight bytes of one word.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

}  // namespace

std::uint64_t advice_stamp(const Advice& a) {
  std::uint64_t h = 14695981039346656037ull;
  fnv_mix(h, a.ready ? 1u : 0u);
  fnv_mix(h, a.drifted ? 1u : 0u);
  fnv_mix(h, static_cast<std::uint64_t>(a.kind));
  fnv_mix(h, std::bit_cast<std::uint64_t>(a.t0));
  fnv_mix(h, std::bit_cast<std::uint64_t>(a.t_inf));
  fnv_mix(h, static_cast<std::uint64_t>(a.b));
  fnv_mix(h, std::bit_cast<std::uint64_t>(a.expectation));
  fnv_mix(h, std::bit_cast<std::uint64_t>(a.delta_cost));
  fnv_mix(h, a.entry_generation);
  return h;
}

// --------------------------------------------------------------------------
// AdvisorSnapshot
// --------------------------------------------------------------------------

const AdvisorEntry* AdvisorSnapshot::find(const AdvisorKey& key) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const AdvisorEntry& e, const AdvisorKey& k) { return e.key < k; });
  if (it == entries.end() || it->key != key) return nullptr;
  return &*it;
}

void AdvisorSnapshot::write_json(std::ostream& os) const {
  using exp::detail::json_escape;
  using exp::detail::json_number;
  os << "{\n  \"advisor\": {\n    \"fallback_t_inf\": ";
  json_number(os, fallback.t_inf);
  os << ",\n    \"observations\": " << observations;
  os << ",\n    \"keys\": [";
  bool first = true;
  for (const AdvisorEntry& e : entries) {
    os << (first ? "\n" : ",\n") << "      {\"vo\": ";
    first = false;
    json_escape(os, e.key.vo);
    os << ", \"site\": ";
    json_escape(os, e.key.site);
    os << ", \"user_class\": ";
    json_escape(os, e.key.user_class);
    os << ", \"ready\": " << (e.advice.ready ? "true" : "false")
       << ", \"drifted\": " << (e.advice.drifted ? "true" : "false")
       << ", \"observations\": " << e.observations
       << ", \"refits\": " << e.refits << ", \"drift_statistic\": ";
    json_number(os, e.drift_statistic);
    os << ", \"outlier_ratio\": ";
    json_number(os, e.outlier_ratio);
    os << ",\n       \"kind\": ";
    json_escape(os, core::to_string(e.advice.kind));
    os << ", \"t0\": ";
    json_number(os, e.advice.t0);
    os << ", \"t_inf\": ";
    json_number(os, e.advice.t_inf);
    os << ", \"b\": " << e.advice.b << ", \"expectation\": ";
    json_number(os, e.advice.expectation);
    os << ", \"delta_cost\": ";
    json_number(os, e.advice.delta_cost);
    os << "}";
  }
  os << (first ? "]" : "\n    ]") << "\n  }\n}\n";
}

// --------------------------------------------------------------------------
// AdvisorService: construction / teardown
// --------------------------------------------------------------------------

AdvisorService::AdvisorService(AdvisorConfig config)
    : config_(std::move(config)) {
  if (!(config_.fallback_t_inf > 0.0)) {
    throw std::invalid_argument("AdvisorService: fallback_t_inf <= 0");
  }
  if (config_.refresh_pending == 0) {
    throw std::invalid_argument("AdvisorService: refresh_pending == 0");
  }
  // Validate the planner config eagerly (OnlinePlanner's constructor
  // checks it) so a bad config fails at service construction, not at the
  // first ingest of some unlucky key.
  (void)online::OnlinePlanner(config_.planner);

  // Publish the empty generation-0 snapshot so advise() never sees a null
  // pointer: before any refresh, every key answers with the fallback.
  auto initial = std::make_unique<AdvisorSnapshot>();
  initial->fallback.t_inf = config_.fallback_t_inf;
  initial->fallback.stamp = advice_stamp(initial->fallback);
  const AdvisorSnapshot* raw = initial.get();
  {
    const core::MutexLock lock(mu_);
    owned_.push_back(std::move(initial));
  }
  current_.store(raw, std::memory_order_seq_cst);
}

AdvisorService::~AdvisorService() {
  stop_refresher();
  assert(readers_.load(std::memory_order_seq_cst) == 0 &&
         "AdvisorService destroyed with live Readers");
}

// --------------------------------------------------------------------------
// Ingestion
// --------------------------------------------------------------------------

void AdvisorService::ingest(const AdvisorKey& key, double latency) {
  if (!(latency >= 0.0) || latency >= config_.planner.timeout) {
    throw std::invalid_argument(
        "AdvisorService::ingest: latency outside [0, timeout)");
  }
  ingest_one(key, latency, true);
}

void AdvisorService::ingest_outlier(const AdvisorKey& key) {
  ingest_one(key, 0.0, false);
}

void AdvisorService::ingest_one(const AdvisorKey& key, double latency,
                                bool completed) {
  KeyState* state = nullptr;
  {
    const core::MutexLock lock(mu_);
    state = &keys_.try_emplace(key, config_.planner).first->second;
  }
  {
    // The key's lock alone: a refit triggered here stalls only this key.
    const core::MutexLock key_lock(state->mu);
    if (completed) {
      state->planner.observe_completed(latency);
    } else {
      state->planner.observe_outlier();
    }
    ++state->observations;
    state->dirty = true;
  }
  bool wake = false;
  {
    // Counted only now, so every pending observation is in its planner.
    const core::MutexLock lock(mu_);
    ++observations_;
    ++pending_;
    wake = pending_ >= config_.refresh_pending;
  }
  if (wake) wake_.notify_one();
}

// --------------------------------------------------------------------------
// Snapshot build + publication
// --------------------------------------------------------------------------

std::uint64_t AdvisorService::rebuild_and_swap() {
  std::vector<std::pair<const AdvisorKey*, KeyState*>> keys;
  std::uint64_t folded = 0;
  auto snap = std::make_unique<AdvisorSnapshot>();
  {
    const core::MutexLock lock(mu_);
    if (pending_ == 0) return generation_;
    folded = pending_;
    snap->generation = generation_ + 1;
    snap->observations = observations_;
    // std::map iteration: entries come out key-sorted, so find() can
    // binary search and the JSON dump is deterministic.
    keys.reserve(keys_.size());
    for (auto& [key, state] : keys_) keys.emplace_back(&key, &state);
  }
  const std::uint64_t next_gen = snap->generation;
  // Chaos seam: a deterministic pause keyed on the generation about to be
  // built (src/fault installs it; default none).
  if (config_.refresh_fault) config_.refresh_fault(next_gen);
  snap->fallback.t_inf = config_.fallback_t_inf;
  snap->fallback.generation = next_gen;
  snap->fallback.stamp = advice_stamp(snap->fallback);
  snap->entries.reserve(keys.size());
  for (const auto& item : keys) {
    KeyState* const state = item.second;
    const core::MutexLock key_lock(state->mu);
    if (state->dirty) {
      state->changed_generation = next_gen;
      state->dirty = false;
    }
    AdvisorEntry e;
    e.key = *item.first;
    e.observations = state->observations;
    // warm_refits is 0 unless warm-started: counters stay monotone
    // across a crash-restart.
    e.refits = state->warm_refits + state->planner.refits();
    e.drift_statistic = state->planner.drift_statistic();
    e.outlier_ratio = state->planner.window_outlier_ratio();
    Advice a;
    a.generation = next_gen;
    a.entry_generation = state->changed_generation;
    if (state->planner.ready()) {
      const core::CostEvaluation& c = state->planner.current().choice;
      a.ready = true;
      // OnlinePlanner::drifted() would recompute the two-sample KS.
      a.drifted = e.drift_statistic > config_.planner.drift_threshold;
      a.kind = c.kind;
      a.t0 = c.t0;
      a.t_inf = c.t_inf;
      a.b = c.b;
      a.expectation = c.expectation;
      a.delta_cost = c.delta_cost;
    } else if (state->warm) {
      // Recovered entry whose restarted planner is not ready yet: keep
      // serving the pre-crash payload rather than regressing to the
      // fallback (the recovery contract, docs/robustness.md).
      const Advice& w = state->warm_advice;
      a.ready = w.ready;
      a.drifted = w.drifted;
      a.kind = w.kind;
      a.t0 = w.t0;
      a.t_inf = w.t_inf;
      a.b = w.b;
      a.expectation = w.expectation;
      a.delta_cost = w.delta_cost;
      e.drift_statistic = state->warm_drift_statistic;
      e.outlier_ratio = state->warm_outlier_ratio;
    } else {
      // Not ready: the documented fallback, stamped with this entry's
      // generation so the torn-read canary still binds it to one build.
      a.t_inf = config_.fallback_t_inf;
    }
    a.stamp = advice_stamp(a);
    e.advice = a;
    snap->entries.push_back(std::move(e));
  }

  const AdvisorSnapshot* raw = snap.get();
  const core::MutexLock lock(mu_);
  // Ingests that landed during the build stay pending: the next build
  // folds them again, whether or not this one already saw them.
  staleness_last_ = folded;
  staleness_max_ = std::max(staleness_max_, folded);
  pending_ -= folded;
  generation_ = next_gen;
  ++swaps_;
  owned_.push_back(std::move(snap));
  current_.store(raw, std::memory_order_seq_cst);
  reclaim_retired();
  return next_gen;
}

void AdvisorService::reclaim_retired() {
  const AdvisorSnapshot* live = current_.load(std::memory_order_seq_cst);
  std::erase_if(owned_, [&](const std::unique_ptr<const AdvisorSnapshot>& s) {
    if (s.get() == live) return false;
    for (const HazardSlot& slot : slots_) {
      if (slot.pinned.load(std::memory_order_seq_cst) == s.get()) {
        return false;  // a reader still pins it; retry at the next swap
      }
    }
    return true;
  });
}

std::uint64_t AdvisorService::refresh_now() {
  const core::MutexLock build(build_mu_);
  return rebuild_and_swap();
}

// --------------------------------------------------------------------------
// Background refresher
// --------------------------------------------------------------------------

void AdvisorService::start_refresher() {
  if (refresher_.joinable()) return;
  {
    const core::MutexLock lock(mu_);
    stop_refresher_ = false;
  }
  refresher_ = std::thread([this] { refresher_main(); });
}

void AdvisorService::stop_refresher() {
  if (!refresher_.joinable()) return;
  {
    const core::MutexLock lock(mu_);
    stop_refresher_ = true;
  }
  wake_.notify_all();
  refresher_.join();
  refresher_ = std::thread();
}

void AdvisorService::refresher_main() {
  for (;;) {
    {
      const core::MutexLock lock(mu_);
      wake_.wait(mu_, [this]() GRIDSUB_REQUIRES(mu_) {
        return stop_refresher_ || pending_ >= config_.refresh_pending;
      });
      if (stop_refresher_) return;
    }
    const core::MutexLock build(build_mu_);
    rebuild_and_swap();
  }
}

// --------------------------------------------------------------------------
// Lock-free lookups
// --------------------------------------------------------------------------

AdvisorService::Reader::Reader(AdvisorService& service)
    : service_(&service), slot_(nullptr) {
  for (HazardSlot& slot : service.slots_) {
    bool expected = false;
    if (slot.claimed.compare_exchange_strong(expected, true,
                                             std::memory_order_seq_cst)) {
      slot_ = &slot;
      break;
    }
  }
  if (slot_ == nullptr) {
    throw std::runtime_error("AdvisorService: kMaxReaders already registered");
  }
  service.readers_.fetch_add(1, std::memory_order_seq_cst);
}

AdvisorService::Reader::~Reader() {
  slot_->pinned.store(nullptr, std::memory_order_seq_cst);
  slot_->claimed.store(false, std::memory_order_seq_cst);
  service_->readers_.fetch_sub(1, std::memory_order_seq_cst);
}

Advice AdvisorService::Reader::advise(const AdvisorKey& key) const {
  // Hazard-pointer pin: publish the candidate, then re-check that it is
  // still current. If a swap raced in between, retry with the new pointer
  // — the loop advances every time the refresher publishes, so it is
  // lock-free (and in practice converges in one or two iterations; swaps
  // are rare next to lookups). seq_cst keeps the pin store ordered before
  // the validating load, which is what the writer-side scan in
  // reclaim_retired() relies on.
  const AdvisorSnapshot* snap =
      service_->current_.load(std::memory_order_seq_cst);
  for (;;) {
    slot_->pinned.store(snap, std::memory_order_seq_cst);
    const AdvisorSnapshot* check =
        service_->current_.load(std::memory_order_seq_cst);
    if (check == snap) break;
    snap = check;
  }
  const AdvisorEntry* entry = snap->find(key);
  bool degraded = false;
  Advice advice;
  if (entry != nullptr) {
    const std::uint64_t bound = service_->config_.staleness_bound;
    if (bound != 0 && entry->advice.ready &&
        snap->generation - entry->advice.entry_generation > bound) {
      // Staleness bound exceeded: the fitted recommendation is too many
      // refreshes old to trust, so serve the documented degraded
      // fallback instead (the fallback is writer-stamped, so the torn-
      // read canary still holds on this path).
      advice = snap->fallback;
      degraded = true;
    } else {
      advice = entry->advice;
    }
  } else {
    advice = snap->fallback;
  }
  advice.generation = snap->generation;
  advice.degraded = degraded;
  slot_->pinned.store(nullptr, std::memory_order_release);
  slot_->lookups.fetch_add(1, std::memory_order_relaxed);
  if (degraded) slot_->degraded.fetch_add(1, std::memory_order_relaxed);
  return advice;
}

// --------------------------------------------------------------------------
// Introspection
// --------------------------------------------------------------------------

void AdvisorService::sum_lookup_counters(std::uint64_t& lookups,
                                         std::uint64_t& degraded) const {
  for (const HazardSlot& slot : slots_) {
    lookups += slot.lookups.load(std::memory_order_relaxed);
    degraded += slot.degraded.load(std::memory_order_relaxed);
  }
}

AdvisorStats AdvisorService::stats() const {
  const core::MutexLock lock(mu_);
  AdvisorStats s;
  s.generation = generation_;
  s.swaps = swaps_;
  s.observations = observations_;
  s.pending = pending_;
  s.staleness_last = staleness_last_;
  s.staleness_max = staleness_max_;
  s.keys = keys_.size();
  s.readers = readers_.load(std::memory_order_seq_cst);
  sum_lookup_counters(s.lookups, s.degraded);
  return s;
}

AdvisorHealth AdvisorService::health() const {
  const core::MutexLock lock(mu_);
  AdvisorHealth h;
  h.generation = generation_;
  h.backlog = pending_;
  // Swaps happen under mu_, so the loaded pointer stays live while held.
  const AdvisorSnapshot* snap = current_.load(std::memory_order_seq_cst);
  h.keys = snap->entries.size();
  for (const AdvisorEntry& e : snap->entries) {
    h.max_entry_age =
        std::max(h.max_entry_age, snap->generation - e.advice.entry_generation);
  }
  sum_lookup_counters(h.lookups, h.degraded);
  if (h.lookups > 0) {
    h.degraded_rate =
        static_cast<double>(h.degraded) / static_cast<double>(h.lookups);
  }
  return h;
}

void AdvisorService::dump_json(std::ostream& os) const {
  const core::MutexLock lock(mu_);
  // Swaps happen under mu_, so the loaded pointer stays live while held.
  current_.load(std::memory_order_seq_cst)->write_json(os);
}

// --------------------------------------------------------------------------
// Crash-restart recovery
// --------------------------------------------------------------------------

void AdvisorService::save_snapshot_file(const std::string& path) const {
  // Serialize first (dump_json takes the lock), then write temp + rename
  // so a crash mid-save can never leave a half-written recovery file.
  std::ostringstream text;
  dump_json(text);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text.str();
    out.flush();
    if (!out) {
      throw RecoveryError("failed to write recovery snapshot '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw RecoveryError("failed to publish recovery snapshot '" + path +
                        "': " + ec.message());
  }
}

void AdvisorService::warm_start(std::istream& is, const std::string& origin) {
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) {
    throw RecoveryError(origin + ": unreadable recovery dump");
  }
  const std::string text = buf.str();

  // Parse and extract with the strict JSON-subset machinery; its errors
  // (JsonParseError) are re-thrown as RecoveryError, the one error type
  // warm_start raises. Parsed entries carry payload fields only;
  // generations and stamps are set below.
  double fallback_t_inf = 0.0;
  std::uint64_t total_observations = 0;
  std::vector<AdvisorEntry> parsed;
  try {
    using exp::detail::get_bool;
    using exp::detail::get_key;
    using exp::detail::get_number;
    using exp::detail::get_string;
    using exp::detail::get_uint;
    using exp::detail::JsonParser;
    using exp::detail::JsonValue;
    const JsonValue root = JsonParser(text, origin).parse();
    const JsonValue& advisor = get_key(root, "advisor", origin);
    fallback_t_inf = get_number(advisor, "fallback_t_inf", origin);
    total_observations = get_uint(advisor, "observations", origin);
    const JsonValue& keys = get_key(advisor, "keys", origin);
    if (keys.kind != JsonValue::Kind::kArray) {
      throw RecoveryError(origin + ": key \"keys\" is not an array");
    }
    parsed.reserve(keys.array.size());
    for (const JsonValue& k : keys.array) {
      if (k.kind != JsonValue::Kind::kObject) {
        throw RecoveryError(origin + ": non-object entry in \"keys\"");
      }
      AdvisorEntry e;
      e.key.vo = get_string(k, "vo", origin);
      e.key.site = get_string(k, "site", origin);
      e.key.user_class = get_string(k, "user_class", origin);
      e.advice.ready = get_bool(k, "ready", origin);
      e.advice.drifted = get_bool(k, "drifted", origin);
      e.observations = get_uint(k, "observations", origin);
      e.refits = get_uint(k, "refits", origin);
      e.drift_statistic = get_number(k, "drift_statistic", origin);
      e.outlier_ratio = get_number(k, "outlier_ratio", origin);
      if (!core::strategy_kind_from_string(get_string(k, "kind", origin),
                                           e.advice.kind)) {
        throw RecoveryError(origin + ": unknown strategy kind");
      }
      e.advice.t0 = get_number(k, "t0", origin);
      e.advice.t_inf = get_number(k, "t_inf", origin);
      e.advice.b = static_cast<int>(get_uint(k, "b", origin));
      e.advice.expectation = get_number(k, "expectation", origin);
      e.advice.delta_cost = get_number(k, "delta_cost", origin);
      if (!parsed.empty() && !(parsed.back().key < e.key)) {
        throw RecoveryError(origin + ": entries not strictly key-sorted");
      }
      parsed.push_back(std::move(e));
    }
  } catch (const exp::JsonParseError& err) {
    throw RecoveryError(err.what());
  }
  if (fallback_t_inf != config_.fallback_t_inf) {
    throw RecoveryError(origin +
                        ": fallback_t_inf disagrees with this service's "
                        "config — refusing to mix recovery state");
  }

  // Publish as generation 1 on a virgin service: the recovered entries
  // must be the *only* state, or determinism of the re-dump is gone.
  const std::uint64_t gen = 1;
  auto snap = std::make_unique<AdvisorSnapshot>();
  snap->generation = gen;
  snap->observations = total_observations;
  snap->fallback.t_inf = config_.fallback_t_inf;
  snap->fallback.generation = gen;
  snap->fallback.stamp = advice_stamp(snap->fallback);
  snap->entries.reserve(parsed.size());

  const AdvisorSnapshot* raw = snap.get();
  const core::MutexLock build(build_mu_);
  const core::MutexLock lock(mu_);
  if (generation_ != 0 || !keys_.empty() || observations_ != 0 ||
      pending_ != 0) {
    throw RecoveryError(origin +
                        ": warm_start on a service that already holds "
                        "state (must be virgin)");
  }
  for (AdvisorEntry& e : parsed) {
    keys_.try_emplace(e.key, config_.planner, e, gen);
    e.advice.generation = gen;
    e.advice.entry_generation = gen;
    e.advice.stamp = advice_stamp(e.advice);
    snap->entries.push_back(std::move(e));
  }
  observations_ = total_observations;
  generation_ = gen;
  ++swaps_;
  owned_.push_back(std::move(snap));
  current_.store(raw, std::memory_order_seq_cst);
  reclaim_retired();
}

void AdvisorService::warm_start_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw RecoveryError("cannot open recovery snapshot '" + path + "'");
  }
  warm_start(in, path);
}

}  // namespace gridsub::serve
