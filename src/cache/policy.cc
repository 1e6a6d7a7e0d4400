#include "src/cache/policy.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace ebs {

const char* CachePolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kFifo:
      return "FIFO";
    case CachePolicy::kLru:
      return "LRU";
    case CachePolicy::kLfu:
      return "LFU";
    case CachePolicy::kClock:
      return "CLOCK";
    case CachePolicy::kTwoQ:
      return "2Q";
    case CachePolicy::kFrozenHot:
      return "FrozenHot";
  }
  return "unknown";
}

namespace {

// Every eviction policy below shares one flat layout: a PageIndex from page to
// a 32-bit slot, and (except CLOCK, which keeps its frame ring) nodes in one
// Pool, linked into Lists by 32-bit index. A replay sizes index, pool and
// frames once (Reserve), for min(its page accesses, the policy's bound): a
// stream of n accesses touches at most n distinct pages. Past that, and in a
// cache nobody reserved, storage grows on demand; the size never changes a
// hit. Each class runs a whole IO's pages itself (PolicyCache::AccessRange),
// so no page goes through a virtual call.

constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();

// The next slot when `count` are in use. Slots are 32-bit and kNil means
// "none", so a cache holds fewer than 2^32 - 1 pages at once.
uint32_t NextSlot(size_t count) {
  if (count >= kNil) {
    throw std::length_error("PageCache: too many resident pages for 32-bit slots");
  }
  return static_cast<uint32_t>(count);
}

// Open-addressing map from page to slot: linear probing over a power-of-two
// table with backward-shift deletion, so erasing leaves no tombstones. The
// table doubles before it passes half full. A bucket holds only the slot and
// the page's 32-bit hash; the page itself lives in the caller's node or frame,
// so Find confirms a match through `page_of(slot)` and Erase takes the slot.
// Only the rehash walks the table, so no hit or eviction can depend on hash
// order.
class PageIndex {
 public:
  PageIndex() : buckets_(size_t{1} << kMinBits) {}

  size_t size() const { return size_; }

  // Room for `count` pages before the next growth.
  void Reserve(size_t count) {
    int bits = kMinBits;
    while (bits < 32 && (size_t{1} << (bits - 1)) < count) {
      ++bits;
    }
    if (bits > Bits()) {
      Rehash(bits);
    }
  }

  // The page's slot, or kNil.
  template <class PageOf>
  uint32_t Find(uint64_t page, PageOf page_of) const {
    const uint32_t hash = Hash(page);
    for (size_t i = Home(hash);; i = Next(i)) {
      const Bucket bucket = buckets_[i];
      if (bucket.slot == kNil || (bucket.hash == hash && page_of(bucket.slot) == page)) {
        return bucket.slot;
      }
    }
  }

  // `page` must be absent.
  void Insert(uint64_t page, uint32_t slot) {
    if (2 * (size_ + 1) > buckets_.size()) {
      Rehash(Bits() + 1);
    }
    Place({slot, Hash(page)});
    ++size_;
  }

  // `page` must be present, at `slot`.
  void Erase(uint64_t page, uint32_t slot) {
    size_t hole = Home(Hash(page));
    while (buckets_[hole].slot != slot) {
      hole = Next(hole);
    }
    // Shift each later entry of the run back into the hole unless its home
    // lies cyclically in (hole, i].
    for (size_t i = Next(hole); buckets_[i].slot != kNil; i = Next(i)) {
      if (Distance(Home(buckets_[i].hash), i) >= Distance(hole, i)) {
        buckets_[hole] = buckets_[i];
        hole = i;
      }
    }
    buckets_[hole].slot = kNil;
    --size_;
  }

 private:
  static constexpr int kMinBits = 4;

  struct Bucket {
    uint32_t slot = kNil;  // kNil marks an empty bucket
    uint32_t hash = 0;
  };

  // Fibonacci hashing: the top 32 bits of page * 2^64/phi. A table of 2^b
  // buckets homes a page by the hash's top b bits.
  static uint32_t Hash(uint64_t page) {
    return static_cast<uint32_t>((page * 0x9E3779B97F4A7C15ULL) >> 32);
  }
  int Bits() const { return 32 - shift_; }
  size_t Home(uint32_t hash) const { return hash >> shift_; }
  size_t Next(size_t i) const { return (i + 1) & (buckets_.size() - 1); }
  // Probe steps from bucket `from` forward to bucket `to`.
  size_t Distance(size_t from, size_t to) const { return (to - from) & (buckets_.size() - 1); }

  void Place(Bucket entry) {
    size_t i = Home(entry.hash);
    while (buckets_[i].slot != kNil) {
      i = Next(i);
    }
    buckets_[i] = entry;
  }

  void Rehash(int bits) {
    if (bits > 32) {
      throw std::length_error("PageCache: index past 2^32 buckets");
    }
    std::vector<Bucket> old(size_t{1} << bits);
    old.swap(buckets_);
    shift_ = 32 - bits;
    for (const Bucket& bucket : old) {
      if (bucket.slot != kNil) {
        Place(bucket);
      }
    }
  }

  std::vector<Bucket> buckets_;
  int shift_ = 32 - kMinBits;
  size_t size_ = 0;
};

// Nodes linked by 32-bit `prev`/`next` indices. Released nodes are reused
// before the vector grows.
template <class Node>
class Pool {
 public:
  Node& operator[](uint32_t n) { return nodes_[n]; }

  void Reserve(size_t count) { nodes_.reserve(std::min<size_t>(count, kNil)); }

  uint32_t Acquire() {
    if (free_ != kNil) {
      const uint32_t n = free_;
      free_ = nodes_[n].next;
      return n;
    }
    const uint32_t n = NextSlot(nodes_.size());
    nodes_.emplace_back();
    return n;
  }

  void Release(uint32_t n) {
    nodes_[n].next = free_;
    free_ = n;
  }

 private:
  std::vector<Node> nodes_;
  uint32_t free_ = kNil;
};

// A doubly linked list threaded through a Pool: head is the oldest node (the
// next victim), tail the newest.
struct List {
  uint32_t head = kNil;
  uint32_t tail = kNil;
  size_t size = 0;

  // before == kNil appends.
  template <class Node>
  void InsertBefore(Pool<Node>& pool, uint32_t n, uint32_t before) {
    const uint32_t prev = before == kNil ? tail : pool[before].prev;
    pool[n].prev = prev;
    pool[n].next = before;
    (prev == kNil ? head : pool[prev].next) = n;
    (before == kNil ? tail : pool[before].prev) = n;
    ++size;
  }

  template <class Node>
  void PushBack(Pool<Node>& pool, uint32_t n) {
    InsertBefore(pool, n, kNil);
  }

  template <class Node>
  void Unlink(Pool<Node>& pool, uint32_t n) {
    const uint32_t prev = pool[n].prev;
    const uint32_t next = pool[n].next;
    (prev == kNil ? head : pool[prev].next) = next;
    (next == kNil ? tail : pool[next].prev) = prev;
    --size;
  }

  template <class Node>
  void MoveToBack(Pool<Node>& pool, uint32_t n) {
    if (n != tail) {
      Unlink(pool, n);
      PushBack(pool, n);
    }
  }
};

struct PageNode {
  uint64_t page;
  uint32_t prev;
  uint32_t next;
};

// The per-IO loop, compiled into each final policy class below: every page
// is a direct call of the policy's own Access, with no virtual dispatch.
template <class Policy>
class PolicyCache : public PageCache {
 public:
  size_t AccessRange(uint64_t start_page, size_t pages) final {
    Policy& policy = static_cast<Policy&>(*this);
    size_t hits = 0;
    for (size_t i = 0; i < pages; ++i) {
      if (policy.Policy::Access(start_page + i)) {
        ++hits;
      }
    }
    return hits;
  }
};

// FIFO and LRU: one list, head = next victim. LRU moves each hit to the tail;
// FIFO never reorders.
class QueueCache final : public PolicyCache<QueueCache> {
 public:
  QueueCache(size_t capacity, bool lru) : capacity_(capacity), lru_(lru) {}

  bool Access(uint64_t page) override {
    const uint32_t n = index_.Find(page, [this](uint32_t s) { return pool_[s].page; });
    if (n != kNil) {
      if (lru_) {
        order_.MoveToBack(pool_, n);
      }
      return true;
    }
    uint32_t slot;
    if (order_.size >= capacity_) {
      slot = order_.head;
      order_.Unlink(pool_, slot);
      index_.Erase(pool_[slot].page, slot);
    } else {
      slot = pool_.Acquire();
    }
    pool_[slot].page = page;
    order_.PushBack(pool_, slot);
    index_.Insert(page, slot);
    return false;
  }

  void Reserve(size_t accesses) override {
    const size_t pages = std::min(accesses, capacity_);
    index_.Reserve(pages);
    pool_.Reserve(pages);
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return lru_ ? "LRU" : "FIFO"; }

 private:
  size_t capacity_;
  bool lru_;
  PageIndex index_;
  Pool<PageNode> pool_;
  List order_;
};

// O(1) LFU: one list per frequency, its buckets chained in ascending
// frequency order. The victim is the oldest page of the lowest bucket.
class LfuCache final : public PolicyCache<LfuCache> {
 public:
  explicit LfuCache(size_t capacity) : capacity_(capacity) {}

  bool Access(uint64_t page) override {
    const uint32_t n = index_.Find(page, [this](uint32_t s) { return pages_[s].page; });
    if (n != kNil) {
      Promote(n);
      return true;
    }
    uint32_t slot;
    if (index_.size() >= capacity_) {
      slot = buckets_[chain_.head].pages.head;
      Detach(slot);
      index_.Erase(pages_[slot].page, slot);
    } else {
      slot = pages_.Acquire();
    }
    pages_[slot].page = page;
    const uint32_t first = chain_.head;
    Attach(slot, first != kNil && buckets_[first].freq == 1 ? first : NewBucket(1, first));
    index_.Insert(page, slot);
    return false;
  }

  // Frequency buckets stay on demand: most streams reach few frequencies.
  void Reserve(size_t accesses) override {
    const size_t pages = std::min(accesses, capacity_);
    index_.Reserve(pages);
    pages_.Reserve(pages);
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "LFU"; }

 private:
  struct Node {
    uint64_t page;
    uint32_t prev;
    uint32_t next;
    uint32_t bucket;
  };
  struct Bucket {
    uint64_t freq;
    uint32_t prev;
    uint32_t next;
    List pages;
  };

  void Promote(uint32_t n) {
    const uint32_t bucket = pages_[n].bucket;
    const uint64_t freq = buckets_[bucket].freq + 1;
    uint32_t next = buckets_[bucket].next;
    if (next == kNil || buckets_[next].freq != freq) {
      next = NewBucket(freq, next);
    }
    Detach(n);
    Attach(n, next);
  }

  // A new empty bucket, chained before `before`.
  uint32_t NewBucket(uint64_t freq, uint32_t before) {
    const uint32_t b = buckets_.Acquire();
    buckets_[b].freq = freq;  // a released bucket's page list is already empty
    chain_.InsertBefore(buckets_, b, before);
    return b;
  }

  void Attach(uint32_t n, uint32_t bucket) {
    pages_[n].bucket = bucket;
    buckets_[bucket].pages.PushBack(pages_, n);
  }

  // Unlinks page node `n` from its bucket, dropping the bucket if it empties.
  void Detach(uint32_t n) {
    const uint32_t bucket = pages_[n].bucket;
    List& pages = buckets_[bucket].pages;
    pages.Unlink(pages_, n);
    if (pages.size == 0) {
      chain_.Unlink(buckets_, bucket);
      buckets_.Release(bucket);
    }
  }

  size_t capacity_;
  PageIndex index_;
  Pool<Node> pages_;
  Pool<Bucket> buckets_;
  List chain_;  // buckets, lowest frequency at the head
};

class ClockCache final : public PolicyCache<ClockCache> {
 public:
  explicit ClockCache(size_t capacity) : capacity_(capacity) {}

  bool Access(uint64_t page) override {
    const uint32_t f = index_.Find(page, [this](uint32_t s) { return frames_[s].page; });
    if (f != kNil) {
      frames_[f].referenced = true;
      return true;
    }
    if (frames_.size() < capacity_) {
      index_.Insert(page, NextSlot(frames_.size()));
      frames_.push_back({page, true});
      return false;
    }
    // Advance the hand until an unreferenced frame is found.
    while (frames_[hand_].referenced) {
      frames_[hand_].referenced = false;
      Advance();
    }
    index_.Erase(frames_[hand_].page, hand_);
    frames_[hand_] = {page, true};
    index_.Insert(page, hand_);
    Advance();
    return false;
  }

  void Reserve(size_t accesses) override {
    const size_t pages = std::min(accesses, capacity_);
    index_.Reserve(pages);
    frames_.reserve(pages);
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "CLOCK"; }

 private:
  struct Frame {
    uint64_t page;
    bool referenced;
  };

  void Advance() {
    if (++hand_ == capacity_) {
      hand_ = 0;
    }
  }

  size_t capacity_;
  uint32_t hand_ = 0;
  std::vector<Frame> frames_;
  PageIndex index_;
};

// 2Q (simplified full version): A1in FIFO for first-touch pages, Am LRU for
// re-referenced pages, A1out ghost history of recently evicted first-touch
// pages. A page is in at most one queue, so the three share one index and one
// pool, and each node records its queue.
class TwoQCache final : public PolicyCache<TwoQCache> {
 public:
  explicit TwoQCache(size_t capacity)
      : capacity_(capacity),
        a1in_capacity_(std::max<size_t>(1, capacity / 4)),
        am_capacity_(std::max<size_t>(1, capacity - a1in_capacity_)),
        a1out_capacity_(std::max<size_t>(1, capacity / 2)) {}

  bool Access(uint64_t page) override {
    const uint32_t n = index_.Find(page, [this](uint32_t s) { return pool_[s].page; });
    if (n == kNil) {
      InsertA1in(page);
      return false;
    }
    if (pool_[n].queue == Queue::kAm) {
      am_.MoveToBack(pool_, n);
      return true;
    }
    if (pool_[n].queue == Queue::kA1in) {
      return true;  // stays in A1in until it ages out
    }
    // Re-reference after eviction (A1out): promote to Am.
    a1out_.Unlink(pool_, n);
    if (am_.size >= am_capacity_) {
      DropOldest(am_);
    }
    Push(am_, Queue::kAm, n);
    return false;
  }

  // The index and pool hold A1out's ghosts as well as the resident pages.
  void Reserve(size_t accesses) override {
    const size_t pages =
        std::min(accesses, a1in_capacity_ + am_capacity_ + a1out_capacity_);
    index_.Reserve(pages);
    pool_.Reserve(pages);
  }

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "2Q"; }

 private:
  enum class Queue : uint8_t { kAm, kA1in, kA1out };
  struct Node {
    uint64_t page;
    uint32_t prev;
    uint32_t next;
    Queue queue;
  };

  void InsertA1in(uint64_t page) {
    if (a1in_.size >= a1in_capacity_) {
      const uint32_t old = a1in_.head;
      a1in_.Unlink(pool_, old);
      if (a1out_.size >= a1out_capacity_) {
        DropOldest(a1out_);
      }
      Push(a1out_, Queue::kA1out, old);
    }
    const uint32_t n = pool_.Acquire();
    pool_[n].page = page;
    Push(a1in_, Queue::kA1in, n);
    index_.Insert(page, n);
  }

  void Push(List& list, Queue queue, uint32_t n) {
    pool_[n].queue = queue;
    list.PushBack(pool_, n);
  }

  // Forgets the oldest page of `list`.
  void DropOldest(List& list) {
    const uint32_t n = list.head;
    list.Unlink(pool_, n);
    index_.Erase(pool_[n].page, n);
    pool_.Release(n);
  }

  size_t capacity_;
  size_t a1in_capacity_;
  size_t am_capacity_;
  size_t a1out_capacity_;
  PageIndex index_;
  Pool<Node> pool_;
  List am_;     // LRU at the head
  List a1in_;   // oldest at the head
  List a1out_;  // oldest at the head
};

class FrozenCache final : public PolicyCache<FrozenCache> {
 public:
  FrozenCache(uint64_t first_page, size_t capacity)
      : first_(first_page), capacity_(capacity) {}

  bool Access(uint64_t page) override {
    return page >= first_ && page < first_ + capacity_;
  }

  void Reserve(size_t /*accesses*/) override {}

  size_t capacity_pages() const override { return capacity_; }
  std::string name() const override { return "FrozenHot"; }

 private:
  uint64_t first_;
  size_t capacity_;
};

}  // namespace

std::unique_ptr<PageCache> MakeCache(CachePolicy policy, size_t capacity_pages) {
  if (capacity_pages == 0) {
    throw std::invalid_argument("MakeCache: capacity_pages must be > 0");
  }
  switch (policy) {
    case CachePolicy::kFifo:
      return std::make_unique<QueueCache>(capacity_pages, /*lru=*/false);
    case CachePolicy::kLru:
      return std::make_unique<QueueCache>(capacity_pages, /*lru=*/true);
    case CachePolicy::kLfu:
      return std::make_unique<LfuCache>(capacity_pages);
    case CachePolicy::kClock:
      return std::make_unique<ClockCache>(capacity_pages);
    case CachePolicy::kTwoQ:
      return std::make_unique<TwoQCache>(capacity_pages);
    case CachePolicy::kFrozenHot:
      return std::make_unique<FrozenCache>(0, capacity_pages);
  }
  return nullptr;
}

std::unique_ptr<PageCache> MakeFrozenCache(uint64_t first_page, size_t capacity_pages) {
  return std::make_unique<FrozenCache>(first_page, capacity_pages);
}

PageReplayTotals ReplayRuns(PageCache& cache, std::span<const PageRun> runs,
                            std::span<uint8_t> full_runs) {
  if (!full_runs.empty() && full_runs.size() != runs.size()) {
    throw std::invalid_argument("ReplayRuns: full_runs must hold one flag per run");
  }
  PageReplayTotals totals;
  for (const PageRun& run : runs) {
    totals.accesses += run.pages;
  }
  cache.Reserve(static_cast<size_t>(totals.accesses));
  for (size_t i = 0; i < runs.size(); ++i) {
    const size_t hits = cache.AccessRange(runs[i].start_page, runs[i].pages);
    if (!full_runs.empty()) {
      full_runs[i] = runs[i].pages > 0 && hits == runs[i].pages ? 1 : 0;
    }
    totals.hits += hits;
  }
  return totals;
}

}  // namespace ebs
