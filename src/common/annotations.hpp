// Clang Thread Safety Analysis vocabulary for the whole repo: capability
// annotations plus mutex wrappers the analysis understands. The paper's
// concurrency invariants (DESIGN.md §7–§8) — readers share WormStore's
// state lock, every mailbox crossing is exclusive, shard maps are touched
// only under their shard mutex — become compile-time facts: a clang build
// runs with -Wthread-safety -Werror=thread-safety and refuses to compile an
// access that violates the declared lock discipline. Off clang (gcc, MSVC)
// every macro expands to nothing and the wrappers are zero-cost veneers
// over the std primitives, so the annotations never cost anything at
// runtime and never gate a non-clang build.
//
// Usage vocabulary (see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//  * AnnotatedMutex / AnnotatedSharedMutex — declare the capability.
//  * GUARDED_BY(mu) on a member — reads need mu held (shared suffices),
//    writes need it exclusive.
//  * REQUIRES(mu) / REQUIRES_SHARED(mu) on a function — caller must already
//    hold mu (exclusively / at least shared).
//  * MutexLock / SharedLock / ExclusiveLock — scoped acquisition the
//    analysis tracks (std::lock_guard over a wrapped mutex would not be).
//  * mu.assert_held() — tell the analysis a capability is held on paths it
//    cannot see (e.g. a std::function duty trampoline invoked only under
//    the owner's exclusive section).
//
// worm-lint rule raw-mutex enforces that src/ declares no bare std::mutex /
// std::shared_mutex outside this header: un-annotated locks are invisible
// to the analysis and would silently punch holes in the discipline.
#pragma once

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define WORM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef WORM_THREAD_ANNOTATION
#define WORM_THREAD_ANNOTATION(x)  // no-op off clang
#endif

#define CAPABILITY(x) WORM_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY WORM_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) WORM_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) WORM_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) WORM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) WORM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) WORM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  WORM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) WORM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  WORM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) WORM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  WORM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  WORM_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  WORM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  WORM_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) WORM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) WORM_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  WORM_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) WORM_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  WORM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace worm::common {

/// std::mutex the analysis can see. Also a BasicLockable, so
/// std::condition_variable_any can wait on the scoped guards below.
class CAPABILITY("mutex") AnnotatedMutex {
 public:
  AnnotatedMutex() = default;
  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Declares to the analysis that this thread holds the mutex on a path it
  /// cannot trace (e.g. inside a std::function invoked only from a locked
  /// section). Compiles to nothing; use sparingly and document why.
  void assert_held() ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// std::shared_mutex the analysis can see (readers shared, writers
/// exclusive — the WormStore / SigVerifyMemo discipline).
class CAPABILITY("shared_mutex") AnnotatedSharedMutex {
 public:
  AnnotatedSharedMutex() = default;
  AnnotatedSharedMutex(const AnnotatedSharedMutex&) = delete;
  AnnotatedSharedMutex& operator=(const AnnotatedSharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  void assert_held() ASSERT_CAPABILITY(this) {}
  void assert_held_shared() ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive hold of an AnnotatedMutex (the std::lock_guard /
/// std::unique_lock replacement the analysis tracks). lock()/unlock() allow
/// the SimClock dispatch pattern (drop the lock around a callback) and make
/// the guard a BasicLockable for std::condition_variable_any::wait.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(AnnotatedMutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  void lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  AnnotatedMutex& mu_;
  bool held_;
};

/// Scoped exclusive hold of an AnnotatedSharedMutex (writer side).
class SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(AnnotatedSharedMutex& mu) ACQUIRE(mu)
      : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~ExclusiveLock() RELEASE() {
    if (held_) mu_.unlock();
  }

  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

  void unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  void lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  AnnotatedSharedMutex& mu_;
  bool held_;
};

/// Scoped shared (reader) hold of an AnnotatedSharedMutex.
class SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(AnnotatedSharedMutex& mu) ACQUIRE_SHARED(mu)
      : mu_(mu), held_(true) {
    mu_.lock_shared();
  }
  ~SharedLock() RELEASE() {
    if (held_) mu_.unlock_shared();
  }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

  void unlock() RELEASE_SHARED() {
    mu_.unlock_shared();
    held_ = false;
  }
  void lock() ACQUIRE_SHARED() {
    mu_.lock_shared();
    held_ = true;
  }

 private:
  AnnotatedSharedMutex& mu_;
  bool held_;
};

}  // namespace worm::common
