#pragma once

// Generation-checked slot map: the one handle table behind
// sim::EventQueue, sim::ComputingElement and sim::WorkloadManager.
//
// Slots sit in one vector and keep their index for the owner's lifetime.
// A handle is (generation << 32) | index. Generations start at 1, so a
// valid handle is never 0 and callers may keep 0 as an "unset" sentinel.
// Every release() bumps the slot's generation, so the handles naming the
// old tenant go stale, and a free slot's generation is one that no
// handle carries yet: find() alone decides whether a handle names a live
// slot, with a bounds check and one compare — no hashing, and no
// per-slot liveness flag.
//
// Free slots form a LIFO list chained through a uint32_t member of Slot
// that the owner names as `Link`. While a slot is live the owner uses that
// member for its own purpose (a queue position, a FIFO link), so the free
// list costs no storage. Slot must also have a uint32_t `generation`
// member that starts at 1. An owner that keeps per-slot data in parallel
// arrays grows them when acquire() returns a new index (one equal to
// their size).

#include <cstdint>
#include <vector>

namespace gridsub::sim {

/// Slot index that names no slot: the end of a free list or FIFO, and the
/// index of handles that never resolve.
inline constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;

/// (generation << 32) | index.
using SlotHandle = std::uint64_t;

/// Handle format. An index of kNilIndex never resolves, so it mints
/// handles that name nothing.
constexpr SlotHandle make_handle(std::uint32_t index,
                                 std::uint32_t generation) {
  return (static_cast<SlotHandle>(generation) << 32) | index;
}

template <typename Slot, std::uint32_t Slot::*Link>
class SlotMap {
 public:
  /// Index of a free slot, its Link set to kNilIndex: the slot released
  /// last, else a default-constructed slot appended at size().
  [[nodiscard]] std::uint32_t acquire() {
    const std::uint32_t index = free_head_;
    if (index == kNilIndex) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    free_head_ = slots_[index].*Link;
    slots_[index].*Link = kNilIndex;
    return index;
  }

  /// Frees a live slot; every handle to it goes stale.
  void release(std::uint32_t index) {
    Slot& slot = slots_[index];
    ++slot.generation;
    slot.*Link = free_head_;
    free_head_ = index;
  }

  /// Handle to the live slot `index`.
  [[nodiscard]] SlotHandle handle(std::uint32_t index) const {
    return make_handle(index, slots_[index].generation);
  }

  /// Index of the live slot `handle` names, or kNilIndex if the handle is
  /// stale, was minted with kNilIndex, or names no slot.
  [[nodiscard]] std::uint32_t find(SlotHandle handle) const {
    const auto index = static_cast<std::uint32_t>(handle);
    if (index >= slots_.size() ||
        slots_[index].generation != static_cast<std::uint32_t>(handle >> 32)) {
      return kNilIndex;
    }
    return index;
  }

  Slot& operator[](std::uint32_t index) { return slots_[index]; }

 private:
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilIndex;
};

}  // namespace gridsub::sim
