#pragma once

// Small-buffer callback: the one callable type on the DES job path.
//
// The DES hot path creates millions of short-lived callbacks per
// simulated week: job starts, job completions, matchmaking hops, client
// timeouts. The event queue, the computing elements and the WMS all
// store them as SmallFn, so a callback is moved between them, never
// copied or re-wrapped. SmallFn is a move-only callable with a 24-byte,
// pointer-aligned inline buffer: 32 bytes with its dispatch pointer. The
// buffer fits the largest hot capture sets, three words: the WMS
// matchmaking hop (object pointer, ticket, runtime) and the strategy
// client's rounds and timeouts (object pointer, round, copy index). The
// CE's, the probe client's and the delayed chain's captures are two
// words. Larger, over-aligned or throwing-move callables fall back to the
// heap transparently, so correctness never depends on the capture size.
//
// Dispatch is one table of three function pointers per callable type
// (invoke / relocate / destroy), chosen at construction — no virtual
// bases, no RTTI, and moving a SmallFn relocates the inline object
// without touching the heap.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace gridsub::sim {

class SmallFn {
 public:
  /// Inline capacity: fits the simulation's biggest hot capture sets
  /// (three pointer-sized words).
  static constexpr std::size_t kInlineSize = 24;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Invokes the stored callable; requires *this to be non-empty.
  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when a callable of type F is stored in the inline buffer (no
  /// heap). Exposed so the regression tests can pin the no-allocation
  /// guarantee for the simulation's hot capture sizes.
  template <typename F>
  [[nodiscard]] static constexpr bool stores_inline() {
    return fits_inline<std::remove_cvref_t<F>>();
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept {
        std::launder(reinterpret_cast<Fn*>(self))->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](void* self) { (**std::launder(reinterpret_cast<Fn**>(self)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* self) noexcept {
        delete *std::launder(reinterpret_cast<Fn**>(self));
      }};

  alignas(void*) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(SmallFn) == 32);

}  // namespace gridsub::sim
