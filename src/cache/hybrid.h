// Hybrid cache deployment (§7.3.2's closing recommendation): CN-cache for
// latency where it fits, BS-cache as the evenly-provisioned backstop.
//
// Every compute node gets a budget of `cn_slots` cacheable VDs; cacheable VDs
// beyond a node's budget spill to the BS hosting their hot segment (whose
// budget is `bs_slots`). The analysis reports, per deployment strategy, the
// p50 write latency gain and how much cache capacity each site must
// provision (max slots used on any node).

#ifndef SRC_CACHE_HYBRID_H_
#define SRC_CACHE_HYBRID_H_

#include <vector>

#include "src/cache/hotspot.h"
#include "src/cache/location.h"
#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

enum class CacheDeployment : uint8_t {
  kCnOnly = 0,   // every cacheable VD cached at its compute node
  kBsOnly,       // every cacheable VD cached at its hot segment's BS
  kHybrid,       // CN until the node budget is exhausted, then BS
};
const char* CacheDeploymentName(CacheDeployment deployment);

struct HybridCacheConfig {
  uint64_t block_bytes = 2048ULL * kMiB;
  double cacheable_threshold = 0.25;
  size_t cn_slots = 2;   // per-node cacheable-VD budget under kHybrid
  size_t bs_slots = 16;  // effectively uncapped backstop
  double flash_read_us = 18.0;
  double flash_write_us = 25.0;
};

struct HybridCacheResult {
  CacheDeployment deployment = CacheDeployment::kCnOnly;
  size_t cached_at_cn = 0;
  size_t cached_at_bs = 0;
  size_t uncached = 0;  // cacheable VDs that found no slot anywhere
  // p50 end-to-end latency gain (with/without) for reads and writes.
  double read_p50_gain = 1.0;
  double write_p50_gain = 1.0;
  // Provisioning pressure: max slots used on any CN / BS.
  size_t max_cn_slots_used = 0;
  size_t max_bs_slots_used = 0;
};

// Throws std::invalid_argument for a config CheckCacheStudyConfig (location.h)
// rejects.
HybridCacheResult EvaluateHybridDeployment(const Fleet& fleet, const TraceDataset& traces,
                                           const VdTraceIndex& index,
                                           CacheDeployment deployment,
                                           const HybridCacheConfig& config);

}  // namespace ebs

#endif  // SRC_CACHE_HYBRID_H_
