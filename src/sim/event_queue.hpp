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
// Storage is a generation-checked slot map, not a hash map: an EventId is
// (generation << 32) | slot index, so push is a free-list pop + vector
// write and cancel is a bounds check + generation compare — no hashing,
// and (with SmallFn's inline buffer) no heap allocation for the common
// events. Slot state is struct-of-arrays: the 12-byte metadata that
// cancel() and the heap sifts touch (generation, liveness, position)
// lives apart from the 48-byte SmallFn payload (a 32-byte inline buffer
// plus its dispatch pointer), which only pop() touches.
// Freeing a slot bumps its generation, so a stale id whose slot was
// recycled fails the generation check instead of cancelling a stranger's
// event.
//
// Ordering is one indexed binary min-heap on (time, seq), where seq is a
// monotone push counter. The keys are unique, so the pop sequence is fully
// determined by them. Every live slot records its entry's heap position,
// which makes cancel() an O(log n) removal instead of a tombstone: the
// heap never holds a dead entry, so it stays at exactly size() entries
// under any cancel/reschedule storm.
//
// A heap entry stores its time as an order-preserving 64-bit integer
// image (the bits of a non-negative time with the sign bit set, the
// complemented bits of a negative one), so (time, seq) compares with
// integer operations only and the sift-down picks the smaller child
// without a conditional jump; a pop in a large heap is otherwise a chain
// of mispredicted branches. The image is a bijection on the times push()
// accepts (it files -0.0 as +0.0 and rejects NaN), so the order, the
// tie-break and the time handed back are exactly those of the double
// compare.

#include <cstdint>
#include <vector>

#include "sim/small_fn.hpp"

namespace gridsub::sim {

/// Simulation clock time (seconds).
using SimTime = double;

/// Handle to a scheduled event: (slot generation << 32) | slot index.
/// Generations start at 1, so a valid id is never 0 and callers may keep
/// using 0 as an "unset" sentinel.
using EventId = std::uint64_t;

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

  /// Heap entries currently allocated. cancel() removes its entry
  /// eagerly, so this always equals size(); the cancel-storm tests pin it.
  [[nodiscard]] std::size_t queued() const { return heap_.size(); }

  /// Time of the earliest live event; requires !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Extracts the earliest live event. Requires !empty().
  struct Fired {
    SimTime time;
    EventId id;
    SmallFn fn;
  };
  Fired pop();

 private:
  static constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;

  /// Hot per-slot metadata. A free slot chains to the next free one
  /// through `next_free`; a live slot stores its heap position there. The
  /// two uses never overlap (a slot is either on the free list or in the
  /// heap), so one field serves both. The generation is bumped on release
  /// so ids referring to the old tenant go stale. The callback payload
  /// lives in the parallel `fns_` array (cold: pop()-only).
  struct SlotMeta {
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilIndex;
    bool live = false;
    bool daemon = false;
  };
  /// Heap record: `key` is the integer image of the event time, and
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
  /// Writes `e` at heap position `pos` and records that position.
  void place(std::size_t pos, const Entry& e);
  /// Moves `e` up from the hole at `pos` to its heap position.
  void sift_up(std::size_t pos, const Entry& e);
  /// Moves `e` down from the hole at `pos` to its heap position.
  void sift_down(std::size_t pos, const Entry& e);
  /// Removes the entry at `pos`: the last entry fills the hole and sifts
  /// whichever way restores the heap order.
  void remove_at(std::size_t pos);
  /// Returns the slot to the free list and invalidates outstanding ids.
  void release(std::uint32_t index);

  std::vector<Entry> heap_;  ///< binary min-heap under before()
  std::vector<SlotMeta> slots_;
  std::vector<SmallFn> fns_;  ///< cold payloads, parallel to slots_
  std::uint32_t free_head_ = kNilIndex;
  std::uint64_t next_seq_ = 1;
  std::size_t alive_ = 0;       ///< occupied slots (daemons included)
  std::size_t live_count_ = 0;  ///< occupied non-daemon slots
};

}  // namespace gridsub::sim
