#pragma once

// Cancellable discrete-event queue.
//
// Grid clients cancel jobs all the time (that is what the paper's
// strategies *are*: every single, multiple or delayed client arms a t_inf
// timeout and usually cancels it), so cancellation is first-class: push()
// returns an id and cancel() removes the event at once. Ties in time are
// broken by insertion order, which keeps runs deterministic.
//
// Events come in two flavours. Regular events keep the simulation alive;
// *daemon* events are housekeeping (e.g. the WMS refreshing its stale load
// snapshot every two minutes) and do not: once only daemon events remain,
// the simulation is considered finished.
//
// Storage is the slot map of sim/slot_map.hpp, not a hash map: an EventId
// is a slot handle, so push is a free-list pop + vector write and cancel
// is a bounds check + generation compare — no hashing, and (with
// SmallFn's inline buffer) no heap allocation for the common events.
// Slot state is struct-of-arrays: the 12-byte metadata that cancel() and
// the filing touch (generation, position, bucket) lives apart from the
// 32-byte SmallFn payload (a 24-byte inline buffer plus its dispatch
// pointer), which only pop() touches.
//
// An entry is ordered by (key, seq): key is an order-preserving 64-bit
// integer image of the time (the bits of a non-negative time with the
// sign bit set, the complemented bits of a negative one), seq a monotone
// push counter. The image is a bijection on the times push() accepts (it
// files -0.0 as +0.0 and rejects NaN), so the order, the tie-break and
// the time handed back are exactly those of the double compare. The
// (key, seq) pairs are unique, so the pop sequence is determined by them
// alone, whatever structure holds the entries.
//
// That structure is a radix heap. Relative to a key `origin_`:
//   - the *front* is an indexed binary min-heap on (key, seq) holding
//     every entry with key <= origin_;
//   - bucket b (b = 1..64, stored at buckets_[b - 1]) is an unsorted
//     vector holding every entry with key > origin_ whose highest bit
//     that differs from origin_ is bit b - 1.
// Every front key is <= origin_ < every key of bucket b < every key of
// bucket b + 1, so a non-empty front's top is the least entry. A push is
// an append to its bucket (or a heap insert when key <= origin_: a tie
// with the origin, or a time below it, which the Simulator allows in
// [now, next_time()) after next_time() has refilled past its horizon).
// When the front runs empty, pop() and next_time() refill it: the lowest
// non-empty bucket's least key becomes origin_, its ties go into the
// front and the rest into strictly lower buckets. Each entry therefore
// moves at most 64 times, and the far future — the long, heavy-tailed
// job completions — is never sifted until it comes near. The front stays
// small (about one entry in a campaign cell; tens of thousands only when
// that many timeouts share one instant), so it is a plain binary heap.
//
// A bucket keeps its buffer across refills, so the steady state allocates
// nothing; a refill frees a buffer above 4,096 entries, so a one-off
// burst does not stay resident.
//
// Every live slot records where its entry sits (a front index or an
// index within its bucket), so cancel() removes the entry at once: from
// the front by the last entry filling the hole and sifting, from a bucket
// by the bucket's last entry filling the hole. The queue never holds a
// dead entry, so it stays at exactly size() entries under any
// cancel/reschedule storm.

#include <array>
#include <cstdint>
#include <vector>

#include "sim/slot_map.hpp"
#include "sim/small_fn.hpp"

namespace gridsub::sim {

/// Simulation clock time (seconds).
using SimTime = double;

/// Handle to a scheduled event (a SlotHandle, never 0).
using EventId = SlotHandle;

class EventQueue {
 public:
  /// Schedules `fn` at `time`; returns a cancellation handle. Daemon
  /// events do not count towards liveness (see live_size()). A time of
  /// -0.0 is filed as +0.0; NaN or an empty callback throws
  /// std::invalid_argument before anything changes.
  EventId push(SimTime time, SmallFn fn, bool daemon = false);

  /// Cancels a pending event. Returns false if it already ran or was
  /// canceled — including when the event's slot has since been recycled
  /// for a newer event (the generation check rejects the stale id).
  bool cancel(EventId id);

  /// True if no events (of either kind) remain.
  [[nodiscard]] bool empty() const { return alive_ == 0; }

  /// Number of live (non-canceled, not-yet-run) events, daemons included.
  [[nodiscard]] std::size_t size() const { return alive_; }

  /// Number of live non-daemon events. The simulation is "done" when this
  /// reaches zero, even if periodic daemon events are still scheduled.
  [[nodiscard]] std::size_t live_size() const { return live_count_; }

  /// Entries held, front and buckets together. cancel() removes its
  /// entry eagerly, so this always equals size(); the cancel-storm tests
  /// pin it.
  [[nodiscard]] std::size_t queued() const {
    std::size_t n = heap_.size();
    for (const std::vector<Entry>& bucket : buckets_) n += bucket.size();
    return n;
  }

  /// Time of the earliest live event; requires !empty(). May refill the
  /// front, hence not const.
  [[nodiscard]] SimTime next_time();

  /// Extracts the earliest live event. Requires !empty().
  struct Fired {
    SimTime time;
    EventId id;
    SmallFn fn;
  };
  Fired pop();

 private:
  /// SlotMeta::bucket value of an entry in the front heap.
  static constexpr std::uint8_t kFront = 0;

  /// Hot per-slot metadata. A live slot stores its entry's position in
  /// `pos`: a front index when `bucket` is kFront, else an index within
  /// buckets_[bucket - 1]; a free slot chains the slot map's free list
  /// through it. The callback payload lives in the parallel `fns_` array
  /// (cold: pop()-only).
  struct SlotMeta {
    std::uint32_t generation = 1;
    std::uint32_t pos = kNilIndex;
    std::uint8_t bucket = kFront;
    bool daemon = false;
  };
  static_assert(sizeof(SlotMeta) == 12);
  /// Queue record: `key` is the integer image of the event time, and
  /// `seq` the monotone push counter that implements the FIFO tie-break
  /// among simultaneous events.
  struct Entry {
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// (key, seq) order without a branch: GCC emits setb/sete here.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return (a.key < b.key) | ((a.key == b.key) & (a.seq < b.seq));
  }
  /// Files `e` in the front if its key is <= origin_, else appends it to
  /// its bucket.
  void file(const Entry& e);
  /// Refills the empty front from the lowest non-empty bucket; requires
  /// a non-empty bucket.
  void refill();
  /// Writes `e` at front position `pos` and records that position.
  void place(std::size_t pos, const Entry& e);
  /// Moves `e` up from the hole at `pos` to its front position.
  void sift_up(std::size_t pos, const Entry& e);
  /// Moves `e` down from the hole at `pos` to its front position.
  void sift_down(std::size_t pos, const Entry& e);
  /// Removes the front entry at `pos`: the last entry fills the hole and
  /// sifts whichever way restores the heap order.
  void remove_at(std::size_t pos);
  /// Frees the slot, its callback and its liveness count.
  void release(std::uint32_t index);

  std::vector<Entry> heap_;  ///< the front: binary min-heap under before()
  std::array<std::vector<Entry>, 64> buckets_;  ///< see the header comment
  std::uint64_t origin_ = 0;
  std::uint64_t nonempty_ = 0;  ///< bit b - 1 set iff bucket b holds entries
  SlotMap<SlotMeta, &SlotMeta::pos> slots_;
  std::vector<SmallFn> fns_;  ///< cold payloads, parallel to slots_
  std::uint64_t next_seq_ = 1;
  std::size_t alive_ = 0;       ///< occupied slots (daemons included)
  std::size_t live_count_ = 0;  ///< occupied non-daemon slots
};

}  // namespace gridsub::sim
