#include "src/cache/hybrid.h"

#include <algorithm>
#include <vector>

#include "src/util/stats.h"

namespace ebs {

const char* CacheDeploymentName(CacheDeployment deployment) {
  switch (deployment) {
    case CacheDeployment::kCnOnly:
      return "CN-only";
    case CacheDeployment::kBsOnly:
      return "BS-only";
    case CacheDeployment::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

HybridCacheResult EvaluateHybridDeployment(const Fleet& fleet, const TraceDataset& traces,
                                           const VdTraceIndex& index,
                                           CacheDeployment deployment,
                                           const HybridCacheConfig& config) {
  CheckCacheStudyConfig(config.block_bytes, config.cacheable_threshold, config.flash_read_us,
                        config.flash_write_us);
  HybridCacheResult result;
  result.deployment = deployment;

  enum class Site : uint8_t { kNone, kCn, kBs };
  struct VdPlacement {
    Site site = Site::kNone;
    uint64_t hot_block = 0;
  };
  std::vector<VdPlacement> placement(fleet.vds.size());
  std::vector<size_t> cn_used(fleet.nodes.size(), 0);
  std::vector<size_t> bs_used(fleet.block_servers.size(), 0);

  // Rank cacheable VDs hottest-first so budgets go to the best candidates.
  struct Candidate {
    double access_rate;
    VdId vd;
    uint64_t hot_block;
  };
  std::vector<Candidate> candidates;
  for (const Vd& vd : fleet.vds) {
    const auto records = index.ForVd(vd.id);
    if (records.empty()) {
      continue;
    }
    const auto stats = AnalyzeHottestBlock(records, vd.capacity_bytes, config.block_bytes,
                                           traces.window_seconds, traces.window_seconds);
    if (stats && stats->access_rate >= config.cacheable_threshold) {
      candidates.push_back({stats->access_rate, vd.id, stats->block_index});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.access_rate > b.access_rate; });

  auto bs_of_hot_block = [&](const Candidate& candidate) {
    const Vd& vd = fleet.vds[candidate.vd.value()];
    const uint64_t offset =
        std::min(candidate.hot_block * config.block_bytes, vd.capacity_bytes - 1);
    const SegmentId segment = fleet.SegmentForOffset(vd.id, offset);
    return fleet.segments[segment.value()].server;
  };

  for (const Candidate& candidate : candidates) {
    const Vd& vd = fleet.vds[candidate.vd.value()];
    VdPlacement& slot = placement[vd.id.value()];
    slot.hot_block = candidate.hot_block;

    const ComputeNodeId cn = fleet.vms[vd.vm.value()].node;
    const BlockServerId bs = bs_of_hot_block(candidate);
    const bool want_cn = deployment == CacheDeployment::kCnOnly ||
                         deployment == CacheDeployment::kHybrid;
    const size_t cn_budget =
        deployment == CacheDeployment::kCnOnly ? SIZE_MAX : config.cn_slots;
    if (want_cn && cn_used[cn.value()] < cn_budget) {
      slot.site = Site::kCn;
      ++cn_used[cn.value()];
      ++result.cached_at_cn;
      continue;
    }
    if (deployment != CacheDeployment::kCnOnly && bs_used[bs.value()] < config.bs_slots) {
      slot.site = Site::kBs;
      ++bs_used[bs.value()];
      ++result.cached_at_bs;
      continue;
    }
    ++result.uncached;
  }

  result.max_cn_slots_used =
      cn_used.empty() ? 0 : *std::max_element(cn_used.begin(), cn_used.end());
  result.max_bs_slots_used =
      bs_used.empty() ? 0 : *std::max_element(bs_used.begin(), bs_used.end());

  // Latency populations.
  std::array<std::vector<double>, kOpTypeCount> base;
  std::array<std::vector<double>, kOpTypeCount> with_cache;
  for (const TraceRecord& r : traces.records) {
    const int op = static_cast<int>(r.op);
    const double full = r.latency.Total();
    base[op].push_back(full);
    const VdPlacement& slot = placement[r.vd.value()];
    const bool hit =
        slot.site != Site::kNone && r.offset / config.block_bytes == slot.hot_block;
    double latency = full;
    if (hit) {
      const double flash =
          r.op == OpType::kRead ? config.flash_read_us : config.flash_write_us;
      latency = slot.site == Site::kCn ? r.latency.TotalWithCnCacheHit(flash)
                                       : r.latency.TotalWithBsCacheHit(flash);
    }
    with_cache[op].push_back(latency);
  }
  const double read_base = Percentile(base[0], 50.0);
  const double write_base = Percentile(base[1], 50.0);
  result.read_p50_gain =
      read_base > 0.0 ? Percentile(with_cache[0], 50.0) / read_base : 1.0;
  result.write_p50_gain =
      write_base > 0.0 ? Percentile(with_cache[1], 50.0) / write_base : 1.0;
  return result;
}

}  // namespace ebs
