// Clang thread-safety annotation macros and an annotated mutex wrapper.
//
// The concurrent stack (obs::MetricRegistry, replay::BoundedQueue, the
// replay sources' cross-thread error slots, the facades' RollupCache)
// declares its lock discipline with these macros so `clang -Wthread-safety`
// can prove — at compile time, for every code path — that guarded state is
// only touched with the right mutex held. CI builds the tree with
// `-Werror=thread-safety`; under GCC (and any non-Clang compiler) every
// macro expands to nothing and the wrapper types degrade to plain
// std::mutex semantics, so the annotations cost nothing locally.
//
// Conventions (see DESIGN.md "Static analysis layer"):
//  - Guarded members carry EBS_GUARDED_BY(mu_) next to their declaration.
//  - Private helpers that assume the lock is held are annotated
//    EBS_REQUIRES(mu_) instead of re-locking.
//  - Scoped locking uses util::MutexLock (an EBS_SCOPED_CAPABILITY type);
//    std::lock_guard/std::unique_lock are invisible to the analysis and
//    must not be used on a util::Mutex.
//  - Condition waits use std::condition_variable_any directly on the
//    util::Mutex; wait predicates are lambdas annotated EBS_REQUIRES(mu_)
//    because they run with the lock held.

#ifndef SRC_UTIL_THREAD_ANNOTATIONS_H_
#define SRC_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define EBS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define EBS_THREAD_ANNOTATION__(x)
#endif

// Type is a lockable capability ("mutex").
#define EBS_CAPABILITY(x) EBS_THREAD_ANNOTATION__(capability(x))
// RAII type that acquires a capability in its constructor and releases it in
// its destructor.
#define EBS_SCOPED_CAPABILITY EBS_THREAD_ANNOTATION__(scoped_lockable)
// Data member readable/writable only with the named capability held.
#define EBS_GUARDED_BY(x) EBS_THREAD_ANNOTATION__(guarded_by(x))
// Pointer member whose pointee is guarded by the named capability.
#define EBS_PT_GUARDED_BY(x) EBS_THREAD_ANNOTATION__(pt_guarded_by(x))
// Function requires the capability held on entry (and does not release it).
#define EBS_REQUIRES(...) EBS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
// Function acquires / releases the capability.
#define EBS_ACQUIRE(...) EBS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define EBS_RELEASE(...) EBS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
// Function acquires the capability iff it returns `ret`.
#define EBS_TRY_ACQUIRE(ret, ...) \
  EBS_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))
// Caller must NOT hold the capability (non-reentrancy guard).
#define EBS_EXCLUDES(...) EBS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
// Escape hatch; every use needs a comment explaining why the analysis is
// wrong there. Currently unused in the tree — keep it that way if possible.
#define EBS_NO_THREAD_SAFETY_ANALYSIS \
  EBS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace ebs {
namespace util {

// std::mutex wrapped as an annotated capability. Exposes the standard
// lowercase Lockable interface so std::condition_variable_any can unlock and
// relock it around a wait.
class EBS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EBS_ACQUIRE() { mu_.lock(); }
  void unlock() EBS_RELEASE() { mu_.unlock(); }
  bool try_lock() EBS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped lock for util::Mutex; the analysis-aware replacement for
// std::lock_guard. Not movable: one lock, one scope.
class EBS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) EBS_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() EBS_RELEASE() { mu_->unlock(); }

 private:
  Mutex* mu_;
};

}  // namespace util
}  // namespace ebs

#endif  // SRC_UTIL_THREAD_ANNOTATIONS_H_
