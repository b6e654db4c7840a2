#include "sim/event_queue.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace gridsub::sim {

namespace {

constexpr EventId make_id(std::uint32_t index, std::uint32_t generation) {
  return (static_cast<EventId>(generation) << 32) | index;
}

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving image of a time that is neither NaN nor -0.0:
/// unsigned order of the images is numeric order of the times.
std::uint64_t time_key(SimTime time) {
  const auto bits = std::bit_cast<std::uint64_t>(time);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// Inverse of time_key().
SimTime key_time(std::uint64_t key) {
  return std::bit_cast<SimTime>((key & kSignBit) != 0 ? key & ~kSignBit
                                                      : ~key);
}

/// Starts loading the cache line at `p`; a hint, so a no-op where the
/// compiler has no prefetch builtin.
inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  static_cast<void>(p);
#endif
}

}  // namespace

EventId EventQueue::push(SimTime time, SmallFn fn, bool daemon) {
  if (!fn) {
    // std::function used to defer this to a bad_function_call at fire
    // time; failing at the call site is both louder and earlier.
    throw std::invalid_argument("EventQueue::push: empty callback");
  }
  // NaN has no place in the key order (its image would sort after +inf),
  // and -0.0 must tie with +0.0 as it does under the double compare.
  if (std::isnan(time)) throw std::invalid_argument("EventQueue::push: NaN");
  if (time == 0.0) time = 0.0;
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
  sift_up(heap_.size() - 1, Entry{time_key(time), next_seq_++, index});
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
  // While both children exist, the smaller one is picked by adding the
  // comparison, not by a jump on it: which child wins is a coin flip
  // that no branch predictor learns. Without the jump the CPU no longer
  // runs ahead into a guessed subtree, so the next level's four entries
  // (96 bytes) are prefetched instead; a heap beyond the cache needs it.
  std::size_t child = 2 * pos + 1;
  for (; child + 1 < n; child = 2 * pos + 1) {
    const std::size_t grandchild = 2 * child + 1;
    if (grandchild < n) prefetch(&heap_[grandchild]);
    if (grandchild + 3 < n) prefetch(&heap_[grandchild + 3]);
    child += static_cast<std::size_t>(before(heap_[child + 1], heap_[child]));
    if (!before(heap_[child], e)) {
      place(pos, e);
      return;
    }
    place(pos, heap_[child]);
    pos = child;
  }
  if (child + 1 == n && before(heap_[child], e)) {  // a lone last child
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
  return key_time(heap_.front().key);
}

EventQueue::Fired EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
  const Entry top = heap_.front();
  // The popped callback is moved out right after the sift, and the next
  // pop moves the new top's: start both loads before they are needed.
  prefetch(&fns_[top.slot]);
  remove_at(0);
  if (!heap_.empty()) prefetch(&fns_[heap_.front().slot]);
  Fired fired{key_time(top.key),
              make_id(top.slot, slots_[top.slot].generation),
              std::move(fns_[top.slot])};
  release(top.slot);
  return fired;
}

}  // namespace gridsub::sim
