// Page-granular cache simulators (§7.3.1).
//
// All caches operate on 4 KiB page ids. Classic eviction policies (FIFO,
// LRU, LFU, CLOCK, 2Q) are provided alongside the paper's focus, FrozenHot: a
// cache that pins a fixed LBA range (the VD's hottest block) and performs no
// eviction at all, trading cache space for zero management overhead.

#ifndef SRC_CACHE_POLICY_H_
#define SRC_CACHE_POLICY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace ebs {

enum class CachePolicy : uint8_t {
  kFifo = 0,
  kLru,
  kLfu,
  kClock,
  kTwoQ,
  kFrozenHot,
};
const char* CachePolicyName(CachePolicy policy);

class PageCache {
 public:
  virtual ~PageCache() = default;

  // One page touch; returns true on hit. Misses insert the page (for the
  // eviction-based policies).
  virtual bool Access(uint64_t page) = 0;

  // Touches pages [start_page, start_page + pages) in order and returns the
  // number of hits: one IO, its per-page loop inside the policy class.
  virtual size_t AccessRange(uint64_t start_page, size_t pages) = 0;

  // Sizes the storage once for a stream of `accesses` page touches: no more
  // pages than that, and no more than the policy holds (its capacity; 2Q's
  // index also holds its ghosts), can ever be resident at once. Storage a
  // stream outgrows still grows on demand, as it does without a Reserve, so
  // no hit depends on it. FrozenHot stores nothing.
  virtual void Reserve(size_t accesses) = 0;

  virtual size_t capacity_pages() const = 0;
  virtual std::string name() const = 0;
};

// Eviction-based policies. Throws std::invalid_argument when capacity_pages
// is 0.
std::unique_ptr<PageCache> MakeCache(CachePolicy policy, size_t capacity_pages);

// FrozenHot: pins pages [first_page, first_page + capacity_pages).
std::unique_ptr<PageCache> MakeFrozenCache(uint64_t first_page, size_t capacity_pages);

// One IO of a cache replay: pages [start_page, start_page + pages).
struct PageRun {
  uint64_t start_page = 0;
  uint32_t pages = 0;
};

struct PageReplayTotals {
  uint64_t hits = 0;
  uint64_t accesses = 0;
};

// The §7.3.1 replay loop of ReplayVdCache and OnlineCacheSink: reserves
// `cache` once for the runs' pages, then replays the runs in order. When
// `full_runs` is non-empty it holds one flag per run, set to 1 for a run whose
// pages all hit and to 0 otherwise; a zero-page run touches nothing and is
// never full.
PageReplayTotals ReplayRuns(PageCache& cache, std::span<const PageRun> runs,
                            std::span<uint8_t> full_runs = {});

}  // namespace ebs

#endif  // SRC_CACHE_POLICY_H_
