#include "sim/event_queue.hpp"

#include <stdexcept>

namespace gridsub::sim {

namespace {

constexpr EventId make_id(std::uint32_t index, std::uint32_t generation) {
  return (static_cast<EventId>(generation) << 32) | index;
}

}  // namespace

EventId EventQueue::push(SimTime time, SmallFn fn, bool daemon) {
  if (!fn) {
    // std::function used to defer this to a bad_function_call at fire
    // time; failing at the call site is both louder and earlier.
    throw std::invalid_argument("EventQueue::push: empty callback");
  }
  std::uint32_t index;
  if (free_head_ != kNilIndex) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
    fns_[index] = std::move(fn);
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    fns_.push_back(std::move(fn));
  }
  SlotMeta& s = slots_[index];
  s.live = true;
  s.daemon = daemon;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{time, next_seq_++, index});
  ++alive_;
  if (!daemon) ++live_count_;
  return make_id(index, s.generation);
}

void EventQueue::place(std::size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].next_free = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos, const Entry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventQueue::sift_down(std::size_t pos, const Entry& e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void EventQueue::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the removed entry was the last one
  // The last entry comes from another subtree, so it may order before the
  // hole's parent as well as after the hole's children.
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void EventQueue::release(std::uint32_t index) {
  SlotMeta& s = slots_[index];
  fns_[index] = SmallFn{};  // drop any heap-held capture now, not at reuse
  s.live = false;
  ++s.generation;  // ids naming the old tenant go stale
  s.next_free = free_head_;
  free_head_ = index;
  --alive_;
  if (!s.daemon) --live_count_;
}

bool EventQueue::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size()) return false;
  const SlotMeta& s = slots_[index];
  if (!s.live || s.generation != generation) return false;
  remove_at(s.next_free);
  release(index);
  return true;
}

SimTime EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
  const Entry top = heap_.front();
  remove_at(0);
  Fired fired{top.time, make_id(top.slot, slots_[top.slot].generation),
              std::move(fns_[top.slot])};
  release(top.slot);
  return fired;
}

}  // namespace gridsub::sim
