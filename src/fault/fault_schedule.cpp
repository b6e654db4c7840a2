#include "fault/fault_schedule.hpp"

namespace gridsub::fault {

namespace {

// Distinct tags keep the decision streams of different fault classes
// independent even when their identity domains overlap (request-path and
// reply-path faults both key on the request id).
constexpr std::uint64_t kTagRequest = 0x7265717561736b31ULL;
constexpr std::uint64_t kTagReply = 0x7265706c79666c74ULL;
constexpr std::uint64_t kTagIngest = 0x696e676573747374ULL;
constexpr std::uint64_t kTagRefresher = 0x7265667265736872ULL;

[[nodiscard]] bool in_unit(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

bool FaultScheduleConfig::validate() const {
  return in_unit(drop_request) && in_unit(delay_request) &&
         in_unit(duplicate_request) && in_unit(drop_reply) &&
         in_unit(transient_reply) && in_unit(ingest_stall) &&
         in_unit(refresher_pause) &&
         drop_request + delay_request + duplicate_request <= 1.0 &&
         drop_reply + transient_reply <= 1.0;
}

FaultSchedule::FaultSchedule(const FaultScheduleConfig& config)
    : config_(config) {}

std::uint64_t FaultSchedule::mix(std::uint64_t tag, std::uint64_t id) const {
  // splitmix64-style finalizer over (seed, tag, id). Own arithmetic, not
  // std::rand / <random>: the decision must be a portable pure function.
  std::uint64_t x = config_.seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  x += id * 0xbf58476d1ce4e5b9ULL + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double FaultSchedule::unit(std::uint64_t tag, std::uint64_t id) const {
  return static_cast<double>(mix(tag, id) >> 11) * 0x1.0p-53;
}

RequestFault FaultSchedule::request_fault(std::uint64_t request_id) const {
  // One roll against cumulative thresholds: at most one fault per id.
  const double u = unit(kTagRequest, request_id);
  if (u < config_.drop_request) return RequestFault::kDrop;
  if (u < config_.drop_request + config_.delay_request) {
    return RequestFault::kDelay;
  }
  if (u < config_.drop_request + config_.delay_request +
              config_.duplicate_request) {
    return RequestFault::kDuplicate;
  }
  return RequestFault::kNone;
}

ReplyFault FaultSchedule::reply_fault(std::uint64_t request_id) const {
  const double u = unit(kTagReply, request_id);
  if (u < config_.drop_reply) return ReplyFault::kDrop;
  if (u < config_.drop_reply + config_.transient_reply) {
    return ReplyFault::kTransient;
  }
  return ReplyFault::kNone;
}

bool FaultSchedule::ingest_stall(std::uint64_t job_index) const {
  return unit(kTagIngest, job_index) < config_.ingest_stall;
}

bool FaultSchedule::refresher_pause(std::uint64_t generation) const {
  return unit(kTagRefresher, generation) < config_.refresher_pause;
}

}  // namespace gridsub::fault
