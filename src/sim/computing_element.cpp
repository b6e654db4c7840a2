#include "sim/computing_element.hpp"

#include <stdexcept>
#include <utility>

namespace gridsub::sim {

ComputingElement::ComputingElement(Simulator& sim, std::string name,
                                   int slots, double fault_prob,
                                   stats::Rng rng, GridMetrics* metrics)
    : sim_(sim),
      name_(std::move(name)),
      slots_(slots),
      fault_prob_(fault_prob),
      rng_(rng),
      metrics_(metrics) {
  if (slots < 1) throw std::invalid_argument("ComputingElement: slots < 1");
  if (fault_prob < 0.0 || fault_prob > 1.0) {
    throw std::invalid_argument("ComputingElement: fault_prob");
  }
}

double ComputingElement::load() const {
  return (static_cast<double>(queue_length()) + running_) /
         static_cast<double>(slots_);
}

void ComputingElement::release_slot(std::uint32_t index) {
  cold_[index].on_start = nullptr;  // drop what the callback captured
  hot_.release(index);  // stale handles now fail the generation check
}

/// Unlinks a queued slot from its lane, leaving a counted ghost at its
/// position so queue_length() keeps reporting it until the lane would have
/// drained past it (the historical lazy-removal semantics).
void ComputingElement::lane_unlink_to_ghost(LaneList& list,
                                            std::uint32_t index) {
  JobHot& hot = hot_[index];
  const std::uint32_t ghosts = hot.ghosts_before + 1;
  if (hot.next != kNilIndex) {
    hot_[hot.next].ghosts_before += ghosts;
    hot_[hot.next].prev = hot.prev;
  } else {
    list.ghosts_tail += ghosts;
    list.tail = hot.prev;
  }
  if (hot.prev != kNilIndex) {
    hot_[hot.prev].next = hot.next;
  } else {
    list.head = hot.next;
  }
  // list.count is intentionally NOT decremented: the ghost still counts.
}

ComputingElement::JobHandle ComputingElement::submit(double runtime,
                                                     StartCallback on_start,
                                                     Lane lane) {
  if (!(runtime >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "ComputingElement::submit: negative or NaN runtime");
  }
  if (metrics_) ++metrics_->jobs_dispatched;
  if (fault_prob_ > 0.0 && rng_.bernoulli(fault_prob_)) {
    // Silently lost: the handle never maps to a slot; cancel() on it is a
    // no-op returning false, and the client's timeout is the only detector.
    if (metrics_) ++metrics_->jobs_faulted;
    return make_handle(kNilIndex, fault_serial_++);
  }
  const std::uint32_t index = hot_.acquire();
  if (index == cold_.size()) cold_.emplace_back();
  JobCold& cold = cold_[index];
  cold.runtime = runtime;
  cold.enqueue_time = sim_.now();
  cold.on_start = std::move(on_start);
  JobHot& hot = hot_[index];
  hot.state = JobState::kQueued;
  hot.lane = lane;
  const JobHandle handle = hot_.handle(index);
  LaneList& list = (lane == Lane::kLocal) ? local_ : remote_;
  if (list.tail == kNilIndex) {
    list.head = index;
  } else {
    hot_[list.tail].next = index;
  }
  hot.prev = list.tail;
  list.tail = index;
  // Ghosts behind the previous tail now sit ahead of this entry.
  hot.ghosts_before = static_cast<std::uint32_t>(list.ghosts_tail);
  list.ghosts_tail = 0;
  ++list.count;
  try_start_next();
  return handle;
}

bool ComputingElement::cancel(JobHandle handle) {
  const std::uint32_t index = hot_.find(handle);
  // Finished, canceled, faulted at arrival or malformed.
  if (index == kNilIndex) return false;
  JobHot& hot = hot_[index];
  switch (hot.state) {
    case JobState::kQueued:
      // O(1) unlink; the slot is reclaimed immediately and a counted
      // ghost keeps its place in queue_length() until the lane would
      // have drained past it (old deque semantics, byte-identical load).
      lane_unlink_to_ghost(hot.lane == Lane::kLocal ? local_ : remote_,
                           index);
      release_slot(index);
      return true;
    case JobState::kRunning:
      sim_.cancel(cold_[index].completion_event);
      release_slot(index);
      --running_;
      // Slot freed: pull the next queued job.
      try_start_next();
      return true;
    case JobState::kStarting:
      return false;
  }
  return false;
}

void ComputingElement::try_start_next() {
  while (running_ < slots_ && (local_.count > 0 || remote_.count > 0)) {
    // Strict lane priority: remote copies only start when no local job
    // waits (Subramani's dual-queue rule). A lane holding only ghosts
    // still takes priority until they drain — the old deque popped its
    // dead entries one by one here; bulk subtraction is observably equal
    // because nothing can inspect the queue between those pops.
    LaneList& list = (local_.count > 0) ? local_ : remote_;
    if (list.head == kNilIndex) {
      list.count -= list.ghosts_tail;  // lane is all ghosts: drain them
      list.ghosts_tail = 0;
      continue;
    }
    const std::uint32_t index = list.head;
    {
      JobHot& head = hot_[index];
      list.count -= head.ghosts_before;  // drain ghosts ahead of the head
      head.ghosts_before = 0;
      list.head = head.next;
      if (list.head == kNilIndex) {
        list.tail = kNilIndex;
      } else {
        hot_[list.head].prev = kNilIndex;
      }
      head.prev = kNilIndex;
      head.next = kNilIndex;
    }
    --list.count;
    // Move the job out of the slot before on_start runs: the callback may
    // re-enter submit()/cancel() (growing the slot arrays), so no
    // references may be held across it. While kStarting, the handle
    // reports false to cancel(), as it did between the pending- and
    // running-map eras.
    const JobHandle handle = hot_.handle(index);
    hot_[index].state = JobState::kStarting;
    JobCold& cold = cold_[index];
    const double runtime = cold.runtime;
    StartCallback on_start = std::move(cold.on_start);
    ++running_;
    if (metrics_) {
      ++metrics_->jobs_started;
      metrics_->total_queue_wait += sim_.now() - cold.enqueue_time;
    }
    if (on_start) on_start();
    const EventId done =
        sim_.schedule_in(runtime, [this, handle] { finish_job(handle); });
    // Re-index (not re-use a reference): on_start may have grown the
    // arrays and moved them.
    cold_[index].completion_event = done;
    hot_[index].state = JobState::kRunning;
  }
}

void ComputingElement::finish_job(JobHandle handle) {
  const std::uint32_t index = hot_.find(handle);
  if (index == kNilIndex) return;  // already canceled
  release_slot(index);
  --running_;
  if (metrics_) ++metrics_->jobs_completed;
  try_start_next();
}

}  // namespace gridsub::sim
