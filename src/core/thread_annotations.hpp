#pragma once

// Clang thread-safety annotations + the annotated lock primitives the
// concurrent layers build on.
//
// The thread pool, the campaign runner's progress counter
// (exp/campaign.cpp), the MC engine and the advisor service all reduce
// their thread safety to lock discipline: certain state may only be
// touched with a specific mutex held. TSan checks that discipline
// dynamically, on the schedules a test run happens to see; Clang's
// -Wthread-safety analysis checks it *statically*, on every build,
// including Release builds that never run a sanitizer. This header
// provides
//
//   * GRIDSUB_GUARDED_BY / GRIDSUB_REQUIRES / ... — the standard
//     capability-annotation macros, expanding to nothing on compilers
//     without the analysis (GCC, MSVC);
//   * core::Mutex / core::MutexLock / core::CondVar — thin wrappers over
//     std::mutex / std::lock_guard / std::condition_variable_any that
//     carry the capability attributes. The standard-library types are
//     not annotated under libstdc++, so locking through them is
//     invisible to the analysis; locking through these wrappers is not.
//
// See docs/correctness.md for the full contract and how to run the
// analysis locally (clang++ builds get -Wthread-safety automatically).

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define GRIDSUB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GRIDSUB_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares a type that acts as a lockable capability.
#define GRIDSUB_CAPABILITY(x) GRIDSUB_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability for its lifetime.
#define GRIDSUB_SCOPED_CAPABILITY GRIDSUB_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the given capability held.
#define GRIDSUB_GUARDED_BY(x) GRIDSUB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the given capability.
#define GRIDSUB_PT_GUARDED_BY(x) GRIDSUB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that must be called with the capability already held.
#define GRIDSUB_REQUIRES(...) \
  GRIDSUB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the capability (and does not release it).
#define GRIDSUB_ACQUIRE(...) \
  GRIDSUB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases a held capability.
#define GRIDSUB_RELEASE(...) \
  GRIDSUB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capability when it returns `value`.
#define GRIDSUB_TRY_ACQUIRE(value, ...) \
  GRIDSUB_THREAD_ANNOTATION(try_acquire_capability(value, __VA_ARGS__))

/// Function that must be called with the capability *not* held.
#define GRIDSUB_EXCLUDES(...) \
  GRIDSUB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the discipline cannot be expressed.
#define GRIDSUB_NO_THREAD_SAFETY_ANALYSIS \
  GRIDSUB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gridsub::core {

/// std::mutex with the capability attribute: locking through this type is
/// visible to -Wthread-safety, so GRIDSUB_GUARDED_BY members are
/// compiler-checked.
class GRIDSUB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GRIDSUB_ACQUIRE() { mu_.lock(); }
  void unlock() GRIDSUB_RELEASE() { mu_.unlock(); }
  bool try_lock() GRIDSUB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// std::lock_guard over core::Mutex, carrying the scoped-capability
/// attribute so the analysis sees the acquire/release pair.
class GRIDSUB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GRIDSUB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() GRIDSUB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with core::Mutex (condition_variable_any
/// accepts any BasicLockable). wait() takes the mutex itself, not a lock
/// object, so callers keep a plain MutexLock in scope and the analysis
/// still sees the capability held across the wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until `pred()` holds; `mu` must be held by the caller (it is
  /// released while blocked and reacquired before `pred` runs and before
  /// returning, as with any condition variable).
  template <typename Predicate>
  void wait(Mutex& mu, Predicate&& pred) GRIDSUB_REQUIRES(mu) {
    cv_.wait(mu, std::forward<Predicate>(pred));
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace gridsub::core
