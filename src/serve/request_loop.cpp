#include "serve/request_loop.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

namespace gridsub::serve {

// --------------------------------------------------------------------------
// InProcessTransport
// --------------------------------------------------------------------------

InProcessTransport::InProcessTransport(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("InProcessTransport: capacity == 0");
  }
}

void InProcessTransport::post(AdvisorRequest request) {
  {
    const core::MutexLock lock(mu_);
    space_free_.wait(mu_, [this]() GRIDSUB_REQUIRES(mu_) {
      return closed_ || requests_.size() < capacity_;
    });
    if (closed_) {
      throw std::runtime_error("InProcessTransport: post after close");
    }
    requests_.push_back(std::move(request));
  }
  request_ready_.notify_one();
}

bool InProcessTransport::next(AdvisorRequest& out) {
  const core::MutexLock lock(mu_);
  request_ready_.wait(mu_, [this]() GRIDSUB_REQUIRES(mu_) {
    return closed_ || !requests_.empty();
  });
  if (requests_.empty()) return false;  // closed and drained
  out = std::move(requests_.front());
  requests_.pop_front();
  ++in_flight_;  // the shutdown drain waits for this request's outcome
  space_free_.notify_one();
  return true;
}

bool InProcessTransport::reply(const AdvisorResponse& response) {
  {
    const core::MutexLock lock(mu_);
    responses_.push_back(response);
    if (in_flight_ > 0) --in_flight_;
  }
  response_ready_.notify_one();
  return true;  // the in-process queue never fails delivery
}

void InProcessTransport::abandon() {
  {
    const core::MutexLock lock(mu_);
    if (in_flight_ > 0) --in_flight_;
  }
  // An abandoned request may be the last thing a drain was waiting on.
  response_ready_.notify_all();
}

void InProcessTransport::expect_duplicate() {
  const core::MutexLock lock(mu_);
  ++in_flight_;
}

bool InProcessTransport::take_reply(AdvisorResponse& out) {
  const core::MutexLock lock(mu_);
  response_ready_.wait(mu_, [this]() GRIDSUB_REQUIRES(mu_) {
    // After close(), keep blocking while accepted requests are still
    // queued or in flight: their replies are coming. Returning false
    // earlier would lose them (the pre-PR-10 bug).
    return !responses_.empty() ||
           (closed_ && requests_.empty() && in_flight_ == 0);
  });
  if (responses_.empty()) return false;  // closed and fully drained
  out = responses_.front();
  responses_.pop_front();
  return true;
}

void InProcessTransport::close() {
  {
    const core::MutexLock lock(mu_);
    closed_ = true;
  }
  request_ready_.notify_all();
  response_ready_.notify_all();
  space_free_.notify_all();
}

// --------------------------------------------------------------------------
// RequestLoop
// --------------------------------------------------------------------------

RequestLoop::RequestLoop(AdvisorService& service, Transport& transport)
    : service_(service), transport_(transport), reader_(service) {}

RequestLoop::~RequestLoop() { join(); }

void RequestLoop::run() {
  AdvisorRequest request;
  while (transport_.next(request)) {
    AdvisorResponse response;
    response.id = request.id;
    response.type = request.type;
    if (request.deadline != 0 && request.queue_age > request.deadline) {
      // Fail fast: stale work is refused before any lookup happens.
      response.status = ResponseStatus::kDeadlineExceeded;
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    } else {
      try {
        switch (request.type) {
          case AdvisorRequest::Type::kAdvise:
            response.advice = reader_.advise(request.key);
            if (response.advice.degraded) {
              response.status = ResponseStatus::kDegraded;
              degraded_.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          case AdvisorRequest::Type::kStats:
            response.stats = service_.stats();
            break;
        }
      } catch (const std::exception&) {
        // The client gets a typed failure, never a vanished request.
        response.status = ResponseStatus::kInternalError;
        internal_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    bool delivered = false;
    for (std::uint32_t attempt = 0; attempt < kMaxReplyAttempts; ++attempt) {
      if (attempt > 0) {
        // Deterministic backoff: double the yield count each retry. No
        // clock — logical pacing only, so fault runs replay exactly.
        reply_retries_.fetch_add(1, std::memory_order_relaxed);
        for (std::uint32_t spin = 0; spin < (1u << attempt); ++spin) {
          std::this_thread::yield();
        }
      }
      if (transport_.reply(response)) {
        delivered = true;
        break;
      }
    }
    if (delivered) {
      served_.fetch_add(1, std::memory_order_relaxed);
    } else {
      lost_replies_.fetch_add(1, std::memory_order_relaxed);
      transport_.abandon();
    }
  }
}

void RequestLoop::start() {
  if (thread_.joinable()) {
    throw std::logic_error("RequestLoop: start() called twice");
  }
  thread_ = std::thread([this] { run(); });
}

void RequestLoop::join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace gridsub::serve
