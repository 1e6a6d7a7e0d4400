// The production data-prefetching cache of §2.2: per segment, the
// BlockServer watches for runs of continuous large reads and, once a run is
// detected, loads the following bytes from the ChunkServer into local memory.
// §7.2 concludes this helps little because the hottest blocks are
// write-dominant and writes are never buffered — this module lets the claim
// be measured.

#ifndef SRC_CACHE_PREFETCH_H_
#define SRC_CACHE_PREFETCH_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/topology/ids.h"

namespace ebs {

struct PrefetchConfig {
  uint32_t min_run_ios = 3;            // consecutive sequential reads to trigger
  uint32_t min_io_bytes = 128 * 1024;  // only large reads count toward a run
  uint64_t readahead_bytes = 8ULL * 1024 * 1024;  // fetched per trigger
  uint64_t capacity_bytes = 256ULL * 1024 * 1024;  // total resident readahead
};

class PrefetchCache {
 public:
  // Throws std::invalid_argument for a config that cannot prefetch: a zero
  // min_run_ios (every read would trigger, bypassing both the large-read and
  // the sequential-run rule), a zero readahead_bytes, or a capacity_bytes
  // below readahead_bytes (each readahead would be evicted as it lands). A
  // capacity equal to readahead_bytes holds one window.
  explicit PrefetchCache(PrefetchConfig config = {});

  // A read IO against `segment` at byte `offset` (segment-relative offsets
  // and absolute VD offsets both work, as long as the caller is consistent).
  // Returns true when the read is fully covered by resident readahead.
  bool AccessRead(SegmentId segment, uint64_t offset, uint32_t size_bytes);

  // Writes invalidate overlapping readahead (the paper's cache only serves
  // reads; written data would be stale).
  void AccessWrite(SegmentId segment, uint64_t offset, uint32_t size_bytes);

  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t prefetch_issued() const { return prefetch_issued_; }

 private:
  struct Range {
    SegmentId segment;
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  struct RunState {
    uint64_t expected_next = 0;
    uint32_t run_length = 0;
  };

  bool Covered(SegmentId segment, uint64_t begin, uint64_t end) const;
  void Insert(SegmentId segment, uint64_t begin, uint64_t end);
  void EvictUntilFits();

  PrefetchConfig config_;
  std::unordered_map<uint32_t, RunState> runs_;  // key: segment id value
  std::deque<Range> ranges_;                     // FIFO of resident readahead
  uint64_t resident_bytes_ = 0;
  uint64_t prefetch_issued_ = 0;
};

}  // namespace ebs

#endif  // SRC_CACHE_PREFETCH_H_
