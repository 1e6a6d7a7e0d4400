// Bounded MPSC/SPSC blocking queue.
//
// The replay engine gives each generation shard one of these: the worker
// pushes blocks of event batches, the merge thread pops them. The capacity
// bound is the engine's backpressure mechanism — a shard that runs ahead of
// the merge blocks instead of buffering the whole window in RAM.
//
// Lock discipline is declared with the thread-safety annotations in
// src/util/thread_annotations.h and proven by the clang -Wthread-safety CI
// gate: every touch of items_/closed_ happens under mu_. Waits use
// std::condition_variable_any directly on the annotated mutex; the wait
// predicates run with the lock held and are annotated accordingly.

#ifndef SRC_REPLAY_BOUNDED_QUEUE_H_
#define SRC_REPLAY_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <utility>

#include "src/util/thread_annotations.h"

namespace ebs {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while the queue is full. Returns false (dropping the item) if the
  // queue was closed — the producer should stop generating.
  bool Push(T item) EBS_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    not_full_.wait(mu_, [this]() EBS_REQUIRES(mu_) {
      return items_.size() < capacity_ || closed_;
    });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks while the queue is empty. Returns false once the queue is closed
  // and drained.
  bool Pop(T* out) EBS_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    not_empty_.wait(mu_, [this]() EBS_REQUIRES(mu_) {
      return !items_.empty() || closed_;
    });
    if (items_.empty()) {
      return false;
    }
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  // Instantaneous depth; a sampling observer's view of the merge backlog.
  // Racy by nature (the queue keeps moving), exact at the call instant.
  size_t size() const EBS_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    return items_.size();
  }

  // Wakes every waiter. Pending items remain poppable; further pushes fail.
  void Close() EBS_EXCLUDES(mu_) {
    {
      util::MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  // Closes the queue and discards everything still buffered, returning how
  // many items were thrown away. The abort path uses this instead of Close so
  // batches that were generated but never merged are counted as dropped
  // rather than silently destroyed with the queue. Items are destroyed
  // outside the lock (they can be arbitrarily large).
  size_t CloseAndDrain() EBS_EXCLUDES(mu_) {
    std::deque<T> drained;
    {
      util::MutexLock lock(&mu_);
      closed_ = true;
      drained.swap(items_);
    }
    not_full_.notify_all();
    not_empty_.notify_all();
    return drained.size();
  }

 private:
  const size_t capacity_;
  mutable util::Mutex mu_;
  std::condition_variable_any not_full_;
  std::condition_variable_any not_empty_;
  std::deque<T> items_ EBS_GUARDED_BY(mu_);
  bool closed_ EBS_GUARDED_BY(mu_) = false;
};

}  // namespace ebs

#endif  // SRC_REPLAY_BOUNDED_QUEUE_H_
