// Node-based reference implementations of the eviction policies, kept only as
// the oracle for cache_test's differential check: src/cache/policy.cc's flat
// caches must return the same hit/miss as these on every access.
//
// These are the std::list / std::unordered_map classes src/cache/policy.cc
// used before its flat rewrite, unchanged apart from their namespace and
// their base: ReferenceCache is PageCache's single-page interface, without
// the run loop and sizing the flat caches add.

#ifndef TESTS_CACHE_REFERENCE_H_
#define TESTS_CACHE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/policy.h"

namespace ebs::reference {

class ReferenceCache {
 public:
  virtual ~ReferenceCache() = default;
  virtual bool Access(uint64_t page) = 0;
  virtual size_t capacity_pages() const = 0;
  virtual std::string name() const = 0;
};

class FifoCache final : public ReferenceCache {
 public:
  explicit FifoCache(size_t capacity) : capacity_(capacity) {}

  bool Access(uint64_t page) override {
    if (resident_.count(page) > 0) {
      return true;
    }
    if (queue_.size() >= capacity_) {
      resident_.erase(queue_.front());
      queue_.pop_front();
    }
    queue_.push_back(page);
    resident_.insert(page);
    return false;
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "FIFO"; }

 private:
  size_t capacity_;
  std::list<uint64_t> queue_;
  std::unordered_set<uint64_t> resident_;
};

class LruCache final : public ReferenceCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  bool Access(uint64_t page) override {
    const auto it = index_.find(page);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (order_.size() >= capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(page);
    index_[page] = order_.begin();
    return false;
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "LRU"; }

 private:
  size_t capacity_;
  std::list<uint64_t> order_;  // front = most recent
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index_;
};

// O(1) LFU with frequency buckets.
class LfuCache final : public ReferenceCache {
 public:
  explicit LfuCache(size_t capacity) : capacity_(capacity) {}

  bool Access(uint64_t page) override {
    const auto it = index_.find(page);
    if (it != index_.end()) {
      Promote(it->second);
      return true;
    }
    if (index_.size() >= capacity_) {
      EvictOne();
    }
    Insert(page);
    return false;
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "LFU"; }

 private:
  struct Entry {
    uint64_t page;
    uint64_t freq;
  };
  using BucketList = std::list<uint64_t>;  // pages sharing one frequency

  struct Handle {
    uint64_t freq;
    BucketList::iterator pos;
  };

  void Insert(uint64_t page) {
    auto& bucket = buckets_[1];
    bucket.push_front(page);
    index_[page] = {1, bucket.begin()};
    min_freq_ = 1;
  }

  void Promote(Handle& handle) {
    const uint64_t page = *handle.pos;
    auto& old_bucket = buckets_[handle.freq];
    old_bucket.erase(handle.pos);
    if (old_bucket.empty()) {
      buckets_.erase(handle.freq);
      if (min_freq_ == handle.freq) {
        ++min_freq_;
      }
    }
    ++handle.freq;
    auto& bucket = buckets_[handle.freq];
    bucket.push_front(page);
    handle.pos = bucket.begin();
  }

  void EvictOne() {
    auto bucket_it = buckets_.find(min_freq_);
    while (bucket_it == buckets_.end() || bucket_it->second.empty()) {
      ++min_freq_;
      bucket_it = buckets_.find(min_freq_);
    }
    const uint64_t victim = bucket_it->second.back();
    bucket_it->second.pop_back();
    if (bucket_it->second.empty()) {
      buckets_.erase(bucket_it);
    }
    index_.erase(victim);
  }

  size_t capacity_;
  uint64_t min_freq_ = 1;
  std::unordered_map<uint64_t, BucketList> buckets_;
  std::unordered_map<uint64_t, Handle> index_;
};

class ClockCache final : public ReferenceCache {
 public:
  explicit ClockCache(size_t capacity) : capacity_(capacity) {
    frames_.reserve(capacity);
  }

  bool Access(uint64_t page) override {
    const auto it = index_.find(page);
    if (it != index_.end()) {
      frames_[it->second].referenced = true;
      return true;
    }
    if (frames_.size() < capacity_) {
      index_[page] = frames_.size();
      frames_.push_back({page, true});
      return false;
    }
    // Advance the hand until an unreferenced frame is found.
    while (frames_[hand_].referenced) {
      frames_[hand_].referenced = false;
      hand_ = (hand_ + 1) % capacity_;
    }
    index_.erase(frames_[hand_].page);
    frames_[hand_] = {page, true};
    index_[page] = hand_;
    hand_ = (hand_ + 1) % capacity_;
    return false;
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "CLOCK"; }

 private:
  struct Frame {
    uint64_t page;
    bool referenced;
  };
  size_t capacity_;
  size_t hand_ = 0;
  std::vector<Frame> frames_;
  std::unordered_map<uint64_t, size_t> index_;
};

// 2Q (simplified full version): A1in FIFO for first-touch pages, Am LRU for
// re-referenced pages, A1out ghost history of recently evicted first-touch
// pages.
class TwoQCache final : public ReferenceCache {
 public:
  explicit TwoQCache(size_t capacity)
      : capacity_(capacity),
        a1in_capacity_(std::max<size_t>(1, capacity / 4)),
        am_capacity_(std::max<size_t>(1, capacity - a1in_capacity_)),
        a1out_capacity_(std::max<size_t>(1, capacity / 2)) {}

  bool Access(uint64_t page) override {
    if (const auto it = am_index_.find(page); it != am_index_.end()) {
      am_.splice(am_.begin(), am_, it->second);
      return true;
    }
    if (a1in_index_.count(page) > 0) {
      return true;  // stays in A1in until it ages out
    }
    if (a1out_index_.count(page) > 0) {
      // Re-reference after eviction: promote to Am.
      EraseA1out(page);
      InsertAm(page);
      return false;
    }
    InsertA1in(page);
    return false;
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "2Q"; }

 private:
  void InsertAm(uint64_t page) {
    if (am_.size() >= am_capacity_) {
      am_index_.erase(am_.back());
      am_.pop_back();
    }
    am_.push_front(page);
    am_index_[page] = am_.begin();
  }

  void InsertA1in(uint64_t page) {
    if (a1in_.size() >= a1in_capacity_) {
      const uint64_t old = a1in_.front();
      a1in_.pop_front();
      a1in_index_.erase(old);
      PushA1out(old);
    }
    a1in_.push_back(page);
    a1in_index_.insert({page, 0});
  }

  void PushA1out(uint64_t page) {
    if (a1out_.size() >= a1out_capacity_) {
      a1out_index_.erase(a1out_.front());
      a1out_.pop_front();
    }
    a1out_.push_back(page);
    a1out_index_.insert({page, 0});
  }

  void EraseA1out(uint64_t page) {
    a1out_index_.erase(page);
    for (auto it = a1out_.begin(); it != a1out_.end(); ++it) {
      if (*it == page) {
        a1out_.erase(it);
        break;
      }
    }
  }

  size_t capacity_;
  size_t a1in_capacity_;
  size_t am_capacity_;
  size_t a1out_capacity_;
  std::list<uint64_t> am_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> am_index_;
  std::list<uint64_t> a1in_;  // front = oldest
  std::unordered_map<uint64_t, char> a1in_index_;
  std::list<uint64_t> a1out_;
  std::unordered_map<uint64_t, char> a1out_index_;
};

// The reference cache for one eviction policy (nullptr for kFrozenHot, which
// does not evict).
inline std::unique_ptr<ReferenceCache> MakeReferenceCache(CachePolicy policy, size_t capacity) {
  switch (policy) {
    case CachePolicy::kFifo:
      return std::make_unique<FifoCache>(capacity);
    case CachePolicy::kLru:
      return std::make_unique<LruCache>(capacity);
    case CachePolicy::kLfu:
      return std::make_unique<LfuCache>(capacity);
    case CachePolicy::kClock:
      return std::make_unique<ClockCache>(capacity);
    case CachePolicy::kTwoQ:
      return std::make_unique<TwoQCache>(capacity);
    case CachePolicy::kFrozenHot:
      return nullptr;
  }
  return nullptr;
}

}  // namespace ebs::reference

#endif  // TESTS_CACHE_REFERENCE_H_
