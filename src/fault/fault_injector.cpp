#include "fault/fault_injector.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace gridsub::fault {

// --------------------------------------------------------------------------
// FaultInjector
// --------------------------------------------------------------------------

FaultInjector::FaultInjector(const FaultScheduleConfig& config)
    : schedule_(config) {
  if (!config.validate()) {
    throw std::invalid_argument(
        "FaultInjector: rates outside [0,1] or a same-domain group sums "
        "past 1");
  }
}

std::function<void(std::size_t, std::uint64_t)> FaultInjector::ingest_hook() {
  return [this](std::size_t /*shard*/, std::uint64_t job_index) {
    if (!schedule_.ingest_stall(job_index)) return;
    record(FaultClass::kIngestStall, job_index);
    // Logical stall: yields, never a clock, so the run replays exactly
    // and the determinism linter stays clean over src/fault.
    for (std::uint32_t i = 0; i < schedule_.config().stall_yields; ++i) {
      std::this_thread::yield();
    }
  };
}

std::function<void(std::uint64_t)> FaultInjector::refresher_hook() {
  return [this](std::uint64_t generation) {
    if (!schedule_.refresher_pause(generation)) return;
    record(FaultClass::kRefresherPause, generation);
    for (std::uint32_t i = 0; i < schedule_.config().pause_yields; ++i) {
      std::this_thread::yield();
    }
  };
}

void FaultInjector::record(FaultClass cls, std::uint64_t id) {
  const core::MutexLock lock(mu_);
  events_.push_back(FaultEvent{cls, id});
}

std::vector<FaultEvent> FaultInjector::events() const {
  std::vector<FaultEvent> out;
  {
    const core::MutexLock lock(mu_);
    out = events_;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t FaultInjector::count(FaultClass cls) const {
  const core::MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.cls == cls) ++n;
  }
  return n;
}

void FaultInjector::write_events_json(std::ostream& os) const {
  const std::vector<FaultEvent> sorted = events();
  os << "{\"events\": [";
  bool first = true;
  for (const FaultEvent& e : sorted) {
    os << (first ? "\n" : ",\n") << "  {\"class\": \"" << to_string(e.cls)
       << "\", \"id\": " << e.id << "}";
    first = false;
  }
  os << (first ? "]}" : "\n]}") << "\n";
}

// --------------------------------------------------------------------------
// FaultyTransport
// --------------------------------------------------------------------------

FaultyTransport::FaultyTransport(serve::Transport& inner,
                                 FaultInjector& injector)
    : inner_(inner), injector_(injector) {}

bool FaultyTransport::pop_deferred(serve::AdvisorRequest& out, bool flush) {
  const core::MutexLock lock(mu_);
  if (deferred_.empty()) return false;
  const auto it = deferred_.begin();  // earliest due first
  if (!flush && it->first > seq_) return false;
  out = it->second;
  deferred_.erase(it);
  return true;
}

bool FaultyTransport::next(serve::AdvisorRequest& out) {
  for (;;) {
    // Deferred requests whose deferral elapsed are served before new
    // pulls so a delay fault reorders, never starves.
    if (pop_deferred(out, /*flush=*/false)) return true;
    if (!inner_.next(out)) {
      // Inner closed and drained: hand out whatever is still deferred
      // (delivered late rather than lost), then report closed.
      return pop_deferred(out, /*flush=*/true);
    }
    const std::uint64_t now = [&] {
      const core::MutexLock lock(mu_);
      return ++seq_;
    }();
    switch (injector_.schedule().request_fault(out.id)) {
      case RequestFault::kDrop:
        injector_.record(FaultClass::kDropRequest, out.id);
        inner_.abandon();  // this request will never be replied to
        continue;
      case RequestFault::kDelay: {
        injector_.record(FaultClass::kDelayRequest, out.id);
        const std::uint32_t ops = injector_.schedule().config().delay_ops;
        serve::AdvisorRequest delayed = out;
        delayed.queue_age += ops;
        const core::MutexLock lock(mu_);
        deferred_.emplace(now + ops, std::move(delayed));
        continue;
      }
      case RequestFault::kDuplicate: {
        injector_.record(FaultClass::kDuplicateRequest, out.id);
        inner_.expect_duplicate();  // two replies are coming for one pull
        const core::MutexLock lock(mu_);
        deferred_.emplace(now + 1, out);
        return true;  // the original is served immediately
      }
      case RequestFault::kNone:
        return true;
    }
  }
}

bool FaultyTransport::reply(const serve::AdvisorResponse& response) {
  switch (injector_.schedule().reply_fault(response.id)) {
    case ReplyFault::kDrop:
      // The reply vanishes. Tell the inner transport the request is
      // settled (abandon keeps the drain exact) and report success so
      // the loop does not retry a reply scheduled to always vanish.
      injector_.record(FaultClass::kDropReply, response.id);
      inner_.abandon();
      return true;
    case ReplyFault::kTransient: {
      const std::uint32_t budget =
          injector_.schedule().config().transient_attempts;
      bool fail = false;
      {
        const core::MutexLock lock(mu_);
        std::uint32_t& failures = reply_failures_[response.id];
        if (failures < budget) {
          ++failures;
          fail = true;
        }
      }
      if (fail) {
        injector_.record(FaultClass::kTransientReply, response.id);
        return false;  // the loop's bounded retry takes it from here
      }
      return inner_.reply(response);
    }
    case ReplyFault::kNone:
      return inner_.reply(response);
  }
  return inner_.reply(response);
}

void FaultyTransport::abandon() { inner_.abandon(); }

void FaultyTransport::expect_duplicate() { inner_.expect_duplicate(); }

}  // namespace gridsub::fault
