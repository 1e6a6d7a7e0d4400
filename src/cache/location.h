// Cache-placement study: Compute Node cache vs BlockServer cache (§7.3.2,
// Fig 7(b)-(d)).
//
// Assumes a warm FrozenHot cache pinned to each cacheable VD's hottest block
// (cacheable: hottest-block access rate above a threshold). Replaying the
// traces, a hit at the CN skips the entire storage-cluster round trip; a hit
// at the BS skips only the backend network and ChunkServer. The latency gain
// is the ratio of percentile latencies with/without the cache. Space
// utilization compares the spread (stddev) of cacheable-VD counts across CNs
// vs across BSs — a wider spread means worse provisioning for a uniform
// per-node cache size.

#ifndef SRC_CACHE_LOCATION_H_
#define SRC_CACHE_LOCATION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/cache/hotspot.h"
#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

enum class CacheSite : uint8_t { kComputeNode = 0, kBlockServer = 1 };
const char* CacheSiteName(CacheSite site);

struct CacheLocationConfig {
  uint64_t block_bytes = 2048ULL * kMiB;
  double cacheable_threshold = 0.25;  // hottest-block access rate
  double flash_read_us = 18.0;
  double flash_write_us = 25.0;
};

struct LatencyGain {
  // Ratio of percentile latency with cache over without; < 1 is a win.
  double p0 = 1.0;
  double p50 = 1.0;
  double p99 = 1.0;
};

struct CacheLocationAnalysis {
  // [op][site]
  std::array<std::array<LatencyGain, 2>, kOpTypeCount> gain;
  // Cacheable-VD counts per node (every CN / every BS, including zeros).
  std::vector<double> cn_cacheable_counts;
  std::vector<double> bs_cacheable_counts;
  double cn_count_stddev = 0.0;
  double bs_count_stddev = 0.0;
  size_t cacheable_vds = 0;
};

// Throws std::invalid_argument unless block_bytes is positive,
// cacheable_threshold is in [0, 1] and both flash latencies are finite and
// non-negative. A NaN threshold would mark every VD cacheable in one study
// (`<` is false) and none in the other (`>=` is false). AnalyzeCacheLocation
// and EvaluateHybridDeployment check their config with it before any work.
void CheckCacheStudyConfig(uint64_t block_bytes, double cacheable_threshold,
                           double flash_read_us, double flash_write_us);

// Throws std::invalid_argument for a config CheckCacheStudyConfig rejects.
CacheLocationAnalysis AnalyzeCacheLocation(const Fleet& fleet, const TraceDataset& traces,
                                           const VdTraceIndex& index,
                                           const CacheLocationConfig& config);

}  // namespace ebs

#endif  // SRC_CACHE_LOCATION_H_
