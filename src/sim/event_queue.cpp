#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace gridsub::sim {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// A refill frees a bucket's buffer above this many entries (96 KiB):
/// des_scale files its ~4.5e5 start-up events into one bucket.
constexpr std::size_t kKeptBucketCapacity = 4096;

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
  // An empty queue starts over from origin 0, below every key, so its
  // pushes are appends however far the last run advanced the origin.
  if (alive_ == 0) origin_ = 0;
  const std::uint32_t index = slots_.acquire();
  if (index == fns_.size()) {
    fns_.push_back(std::move(fn));
  } else {
    fns_[index] = std::move(fn);
  }
  slots_[index].daemon = daemon;
  file(Entry{time_key(time), next_seq_++, index});
  ++alive_;
  if (!daemon) ++live_count_;
  return slots_.handle(index);
}

void EventQueue::file(const Entry& e) {
  SlotMeta& s = slots_[e.slot];
  if (e.key <= origin_) {
    s.bucket = kFront;
    heap_.emplace_back();
    sift_up(heap_.size() - 1, e);
    return;
  }
  const auto b = static_cast<unsigned>(std::bit_width(e.key ^ origin_));
  std::vector<Entry>& bucket = buckets_[b - 1];
  s.bucket = static_cast<std::uint8_t>(b);
  s.pos = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(e);
  nonempty_ |= std::uint64_t{1} << (b - 1);
}

void EventQueue::refill() {
  const int lowest = std::countr_zero(nonempty_);
  nonempty_ &= nonempty_ - 1;
  std::vector<Entry>& bucket = buckets_[lowest];
  std::uint64_t least = bucket.front().key;
  for (const Entry& e : bucket) least = std::min(least, e.key);
  // The bucket's entries agree with the new origin above bit `lowest`,
  // so file() puts the ties in the front and every other entry in a
  // strictly lower bucket, never back into this one.
  origin_ = least;
  for (const Entry& e : bucket) file(e);
  bucket.clear();
  if (bucket.capacity() > kKeptBucketCapacity) bucket = std::vector<Entry>{};
}

void EventQueue::place(std::size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].pos = static_cast<std::uint32_t>(pos);
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
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
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
  fns_[index] = SmallFn{};  // drop any heap-held capture now, not at reuse
  --alive_;
  if (!slots_[index].daemon) --live_count_;
  slots_.release(index);  // ids naming the old tenant go stale
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t index = slots_.find(id);
  if (index == kNilIndex) return false;  // ran, canceled or never issued
  const SlotMeta& s = slots_[index];
  if (s.bucket == kFront) {
    remove_at(s.pos);
  } else {
    // Buckets are unordered: the bucket's last entry fills the hole.
    std::vector<Entry>& bucket = buckets_[s.bucket - 1];
    const Entry last = bucket.back();
    bucket.pop_back();
    if (s.pos != bucket.size()) {
      bucket[s.pos] = last;
      slots_[last.slot].pos = s.pos;
    } else if (bucket.empty()) {
      nonempty_ &= ~(std::uint64_t{1} << (s.bucket - 1));
    }
  }
  release(index);
  return true;
}

SimTime EventQueue::next_time() {
  if (alive_ == 0) throw std::logic_error("EventQueue::next_time: empty");
  if (heap_.empty()) refill();
  return key_time(heap_.front().key);
}

EventQueue::Fired EventQueue::pop() {
  if (alive_ == 0) throw std::logic_error("EventQueue::pop: empty");
  if (heap_.empty()) refill();
  const Entry top = heap_.front();
  // The popped callback is moved out right after the sift, and the next
  // pop moves the new top's: start both loads before they are needed.
  prefetch(&fns_[top.slot]);
  remove_at(0);
  if (!heap_.empty()) prefetch(&fns_[heap_.front().slot]);
  Fired fired{key_time(top.key), slots_.handle(top.slot),
              std::move(fns_[top.slot])};
  release(top.slot);
  return fired;
}

}  // namespace gridsub::sim
