#include "src/cache/location.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/stats.h"

namespace ebs {

const char* CacheSiteName(CacheSite site) {
  return site == CacheSite::kComputeNode ? "CN-cache" : "BS-cache";
}

void CheckCacheStudyConfig(uint64_t block_bytes, double cacheable_threshold,
                           double flash_read_us, double flash_write_us) {
  if (block_bytes == 0) {
    throw std::invalid_argument("cache study: block_bytes must be positive");
  }
  if (!(cacheable_threshold >= 0.0 && cacheable_threshold <= 1.0)) {
    throw std::invalid_argument("cache study: cacheable_threshold must be in [0, 1]");
  }
  if (!(std::isfinite(flash_read_us) && flash_read_us >= 0.0) ||
      !(std::isfinite(flash_write_us) && flash_write_us >= 0.0)) {
    throw std::invalid_argument(
        "cache study: flash_read_us and flash_write_us must be finite and non-negative");
  }
}

CacheLocationAnalysis AnalyzeCacheLocation(const Fleet& fleet, const TraceDataset& traces,
                                           const VdTraceIndex& index,
                                           const CacheLocationConfig& config) {
  CheckCacheStudyConfig(config.block_bytes, config.cacheable_threshold, config.flash_read_us,
                        config.flash_write_us);
  CacheLocationAnalysis analysis;

  // Hottest block (and cacheability) per VD.
  struct VdHot {
    bool cacheable = false;
    uint64_t block_index = 0;
  };
  std::vector<VdHot> vd_hot(fleet.vds.size());
  std::vector<double> cn_counts(fleet.nodes.size(), 0.0);
  std::vector<double> bs_counts(fleet.block_servers.size(), 0.0);

  for (const Vd& vd : fleet.vds) {
    const auto records = index.ForVd(vd.id);
    if (records.empty()) {
      continue;
    }
    const auto stats =
        AnalyzeHottestBlock(records, vd.capacity_bytes, config.block_bytes,
                            traces.window_seconds, traces.window_seconds);
    if (!stats || stats->access_rate < config.cacheable_threshold) {
      continue;
    }
    vd_hot[vd.id.value()] = {true, stats->block_index};
    analysis.cacheable_vds += 1;

    // CN-cache sits on the VD's compute node; BS-cache on the BS hosting the
    // hot block's segment.
    const ComputeNodeId cn = fleet.vms[vd.vm.value()].node;
    cn_counts[cn.value()] += 1.0;
    const uint64_t hot_offset = stats->block_index * config.block_bytes;
    if (hot_offset < vd.capacity_bytes) {
      const SegmentId segment = fleet.SegmentForOffset(vd.id, hot_offset);
      bs_counts[fleet.segments[segment.value()].server.value()] += 1.0;
    }
  }

  analysis.cn_cacheable_counts = cn_counts;
  analysis.bs_cacheable_counts = bs_counts;
  analysis.cn_count_stddev = StdDev(cn_counts);
  analysis.bs_count_stddev = StdDev(bs_counts);

  // Latency populations per op: without cache, with CN-cache, with BS-cache.
  std::array<std::vector<double>, kOpTypeCount> base;
  std::array<std::vector<double>, kOpTypeCount> with_cn;
  std::array<std::vector<double>, kOpTypeCount> with_bs;

  for (const TraceRecord& r : traces.records) {
    const int op = static_cast<int>(r.op);
    const double flash_us =
        r.op == OpType::kRead ? config.flash_read_us : config.flash_write_us;
    const double full = r.latency.Total();
    base[op].push_back(full);
    const VdHot& hot = vd_hot[r.vd.value()];
    const bool hit = hot.cacheable && r.offset / config.block_bytes == hot.block_index;
    with_cn[op].push_back(hit ? r.latency.TotalWithCnCacheHit(flash_us) : full);
    with_bs[op].push_back(hit ? r.latency.TotalWithBsCacheHit(flash_us) : full);
  }

  auto gain_of = [](std::vector<double>& with, std::vector<double>& without) {
    LatencyGain gain;
    if (with.empty()) {
      return gain;
    }
    std::sort(with.begin(), with.end());
    std::sort(without.begin(), without.end());
    gain.p0 = PercentileSorted(with, 0.0) / std::max(1e-9, PercentileSorted(without, 0.0));
    gain.p50 = PercentileSorted(with, 50.0) / std::max(1e-9, PercentileSorted(without, 50.0));
    gain.p99 = PercentileSorted(with, 99.0) / std::max(1e-9, PercentileSorted(without, 99.0));
    return gain;
  };

  for (int op = 0; op < kOpTypeCount; ++op) {
    std::vector<double> base_copy = base[op];
    analysis.gain[op][static_cast<int>(CacheSite::kComputeNode)] =
        gain_of(with_cn[op], base_copy);
    base_copy = base[op];
    analysis.gain[op][static_cast<int>(CacheSite::kBlockServer)] =
        gain_of(with_bs[op], base_copy);
  }
  return analysis;
}

}  // namespace ebs
