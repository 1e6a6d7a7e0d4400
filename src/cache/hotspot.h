// Hottest-block analysis at the VD LBA level (§7.1-§7.2, Fig 6).
//
// For a given block granularity, finds each VD's most-accessed block and
// reports its access rate, size share of the LBA space, write-to-read ratio
// and temporal "hot rate" (fraction of sub-windows in which the block's
// access rate exceeds its whole-window rate).

#ifndef SRC_CACHE_HOTSPOT_H_
#define SRC_CACHE_HOTSPOT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/cache/policy.h"
#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

// Indexes a trace dataset by VD for per-VD replay. Holds pointers into the
// dataset, which must outlive the index.
class VdTraceIndex {
 public:
  VdTraceIndex(const Fleet& fleet, const TraceDataset& traces);

  std::span<const TraceRecord* const> ForVd(VdId vd) const;
  // VDs with at least `min_records` sampled IOs, hottest first.
  std::vector<VdId> ActiveVds(size_t min_records = 1) const;

 private:
  std::vector<std::vector<const TraceRecord*>> per_vd_;
};

struct HotBlockStats {
  uint64_t block_index = 0;       // block number within the VD
  uint64_t block_bytes = 0;
  uint64_t total_accesses = 0;    // all sampled IOs of the VD
  uint64_t block_accesses = 0;    // IOs landing in the hottest block
  double access_rate = 0.0;       // block_accesses / total_accesses
  double size_fraction = 0.0;     // block_bytes / capacity
  double touched_fraction = 0.0;  // block_bytes / touched (1 MiB-granular) LBA
  double wr_ratio = 0.0;          // Eq. 2 over the block's IO counts
  double hot_rate = 0.0;          // temporal continuity (§7.2)
};

// Returns nullopt when the VD has no sampled IOs. Throws std::invalid_argument
// unless both window lengths are finite and positive and the window holds at
// most 2^53 subwindows.
std::optional<HotBlockStats> AnalyzeHottestBlock(std::span<const TraceRecord* const> vd_traces,
                                                 uint64_t capacity_bytes, uint64_t block_bytes,
                                                 double window_seconds,
                                                 double subwindow_seconds);

// §7.3.1 per-VD cache replay: hit ratio of `policy` with the cache sized to
// `block_bytes` worth of pages. FrozenHot pins the hottest block's range.
// When `full_hits` is non-null it is resized parallel to `vd_traces` with 1
// for every record whose pages ALL hit (the IO could be served entirely from
// the cache — the flag the queueing model's cn_cache_hit short-circuit
// consumes); timed-out IOs never count as hits. A block smaller than one page
// holds no page, so the result is empty (no accesses, hit ratio 0).
struct CacheReplayResult {
  double hit_ratio = 0.0;
  uint64_t page_accesses = 0;
};
CacheReplayResult ReplayVdCache(std::span<const TraceRecord* const> vd_traces,
                                uint64_t capacity_bytes, uint64_t block_bytes,
                                CachePolicy policy, std::vector<uint8_t>* full_hits = nullptr);

}  // namespace ebs

#endif  // SRC_CACHE_HOTSPOT_H_
