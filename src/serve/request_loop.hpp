#pragma once

// Wire-format-agnostic request loop for the advisor service.
//
// The service's network story is deliberately split in two: RequestLoop
// owns the serve loop (drain requests, call the service, push responses)
// while Transport owns how request/response structs move — an in-process
// queue for tests and benches today, a socket or RPC binding tomorrow.
// Nothing in the loop knows about bytes on a wire, so every test and
// bench drives the *real* serving path without opening a socket.
//
// Failure semantics (docs/robustness.md):
//   * every response carries a ResponseStatus — the error taxonomy a
//     client sees instead of a hang or a silent wrong answer;
//   * requests may carry a deadline (a queue-age bound); the loop fails
//     them fast with kDeadlineExceeded instead of serving stale work;
//   * reply() may fail transiently; the loop tries at most
//     RequestLoop::kMaxReplyAttempts deliveries with deterministic
//     yield-doubling backoff, then abandons the request so the
//     transport's in-flight accounting still drains.
//
// InProcessTransport is a bounded MPMC queue pair (requests in, responses
// out) guarded by one annotated mutex; multiple client threads may post
// concurrently and multiple RequestLoops may serve the same transport.
// close() unblocks everyone: posters see std::runtime_error, loops and
// reply-takers drain what is left and stop. The shutdown contract is
// exact: take_reply() keeps returning responses until every request
// accepted before close() — queued *or* in flight — has been replied to
// or abandoned, then returns false. No lost replies, no hang.

#include <atomic>
#include <cstdint>
#include <deque>
#include <string_view>
#include <thread>

#include "core/thread_annotations.hpp"
#include "serve/advisor.hpp"

namespace gridsub::serve {

/// What happened to a request, surfaced in its response. The taxonomy is
/// ordered from healthy to broken; anything past kOk is countable
/// client-side without string matching.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,             ///< fresh advice (or stats) served normally
  kDegraded = 1,       ///< served the documented fallback, not fitted state
  kDeadlineExceeded = 2,  ///< queue age exceeded the request's deadline
  kInternalError = 3,  ///< the service threw; response carries no payload
};

[[nodiscard]] constexpr std::string_view to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kDegraded:
      return "degraded";
    case ResponseStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case ResponseStatus::kInternalError:
      return "internal-error";
  }
  return "unknown";
}

struct AdvisorRequest {
  enum class Type {
    kAdvise,  ///< look up the key's current recommendation
    kStats,   ///< serving metadata (generation, staleness, key count)
  };
  Type type = Type::kAdvise;
  std::uint64_t id = 0;  ///< echoed into the response, caller-chosen
  AdvisorKey key;        ///< kAdvise only
  /// Deadline as a queue-age bound, in transport hops (0 = none). The
  /// loop refuses the request with kDeadlineExceeded once queue_age
  /// exceeds this — logical time, not wall time, so deadline behaviour
  /// is deterministic under the fault harness.
  std::uint32_t deadline = 0;
  /// Hops this request has aged in transit; stamped by the transport
  /// (the in-process queue delivers at age 0, the fault injector's delay
  /// fault adds its deferral distance).
  std::uint32_t queue_age = 0;
};

struct AdvisorResponse {
  std::uint64_t id = 0;
  AdvisorRequest::Type type = AdvisorRequest::Type::kAdvise;
  ResponseStatus status = ResponseStatus::kOk;
  Advice advice;       ///< kAdvise
  AdvisorStats stats;  ///< kStats
};

/// How requests and responses move. Implementations must be safe for
/// concurrent next()/reply()/abandon() from several serving threads.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks for the next request; false = transport closed and drained
  /// (the serve loop exits).
  virtual bool next(AdvisorRequest& out) = 0;

  /// Delivers one response. False = transient delivery failure: the
  /// response did NOT land and the caller may retry; the request is
  /// still accounted in flight. (The in-process queue never fails;
  /// fault-injecting wrappers do.)
  [[nodiscard]] virtual bool reply(const AdvisorResponse& response) = 0;

  /// Tells the transport one in-flight request will never be replied to
  /// (retries exhausted, or a fault wrapper dropped it). Keeps shutdown
  /// draining exact.
  virtual void abandon() {}

  /// Tells the transport one extra reply is coming for a request it
  /// handed out (a fault wrapper duplicated it).
  virtual void expect_duplicate() {}
};

/// In-process Transport: the client half (post / take_reply / close) is
/// what tests and benches call; the Transport half is what RequestLoop
/// drains. Bounded: post() blocks once `capacity` requests are queued.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(std::size_t capacity = 1024);

  // Client side.
  void post(AdvisorRequest request) GRIDSUB_EXCLUDES(mu_);
  /// Blocks for the next response; false = closed and fully drained:
  /// every accepted request has been replied to or abandoned.
  bool take_reply(AdvisorResponse& out) GRIDSUB_EXCLUDES(mu_);
  /// Idempotent; unblocks every waiter. Requests already accepted —
  /// queued or handed to a serve loop — still get served and their
  /// replies still arrive; only *new* posts are refused.
  void close() GRIDSUB_EXCLUDES(mu_);

  // Transport side. Also called without mu_ held; the GRIDSUB_EXCLUDES
  // attribute cannot sit next to `override` syntactically, so the lock
  // discipline here is covered by the GUARDED_BY members alone.
  bool next(AdvisorRequest& out) override;
  [[nodiscard]] bool reply(const AdvisorResponse& response) override;
  void abandon() override;
  void expect_duplicate() override;

 private:
  mutable core::Mutex mu_;
  std::deque<AdvisorRequest> requests_ GRIDSUB_GUARDED_BY(mu_);
  std::deque<AdvisorResponse> responses_ GRIDSUB_GUARDED_BY(mu_);
  bool closed_ GRIDSUB_GUARDED_BY(mu_) = false;
  /// Requests handed out by next() whose reply/abandon has not arrived.
  std::size_t in_flight_ GRIDSUB_GUARDED_BY(mu_) = 0;
  const std::size_t capacity_;
  core::CondVar request_ready_;
  core::CondVar response_ready_;
  core::CondVar space_free_;
};

/// Serves one AdvisorService over one Transport. The loop registers its
/// own lock-free Reader, so advise requests never touch a service lock;
/// stats requests take the service mutex briefly, never behind a refit.
/// Several RequestLoops may share a Transport for multi-worker serving.
class RequestLoop {
 public:
  /// Delivery attempts per response before the loop abandons the request
  /// (counted in lost_replies()).
  static constexpr std::uint32_t kMaxReplyAttempts = 4;

  RequestLoop(AdvisorService& service, Transport& transport);

  RequestLoop(const RequestLoop&) = delete;
  RequestLoop& operator=(const RequestLoop&) = delete;

  /// Joins the serving thread if start() was used (the transport must
  /// already be closed, or the destructor would block forever — close
  /// first, as the tests do).
  ~RequestLoop();

  /// Serves on the calling thread until the transport closes.
  void run();

  /// Spawns a serving thread running run(). Call at most once.
  void start();

  /// Joins the serving thread started by start().
  void join();

  /// Requests answered so far (any status).
  [[nodiscard]] std::uint64_t served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// Responses that carried kDegraded.
  [[nodiscard]] std::uint64_t degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// Responses that carried kDeadlineExceeded.
  [[nodiscard]] std::uint64_t deadline_expired() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }
  /// Responses that carried kInternalError.
  [[nodiscard]] std::uint64_t internal_errors() const {
    return internal_errors_.load(std::memory_order_relaxed);
  }
  /// Transient reply failures that were retried (not necessarily lost).
  [[nodiscard]] std::uint64_t reply_retries() const {
    return reply_retries_.load(std::memory_order_relaxed);
  }
  /// Requests abandoned after kMaxReplyAttempts failed deliveries.
  [[nodiscard]] std::uint64_t lost_replies() const {
    return lost_replies_.load(std::memory_order_relaxed);
  }

 private:
  AdvisorService& service_;
  Transport& transport_;
  AdvisorService::Reader reader_;
  std::thread thread_;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> internal_errors_{0};
  std::atomic<std::uint64_t> reply_retries_{0};
  std::atomic<std::uint64_t> lost_replies_{0};
};

}  // namespace gridsub::serve
