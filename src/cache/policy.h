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

  virtual size_t capacity_pages() const = 0;
  virtual std::string name() const = 0;
};

// Eviction-based policies. Throws std::invalid_argument when capacity_pages
// is 0.
std::unique_ptr<PageCache> MakeCache(CachePolicy policy, size_t capacity_pages);

// FrozenHot: pins pages [first_page, first_page + capacity_pages).
std::unique_ptr<PageCache> MakeFrozenCache(uint64_t first_page, size_t capacity_pages);

// Replays an IO spanning [start_page, start_page + pages) and returns the
// number of page hits.
size_t AccessRange(PageCache& cache, uint64_t start_page, size_t pages);

}  // namespace ebs

#endif  // SRC_CACHE_POLICY_H_
