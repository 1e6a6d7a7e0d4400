#include "src/cache/hotspot.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/skewness.h"

namespace ebs {

namespace {

// Whole subwindows in the window, at least 1. The count is cast to size_t, so
// it must be a finite double no larger than 2^53.
size_t SubwindowCount(double window_seconds, double subwindow_seconds) {
  if (!std::isfinite(window_seconds) || window_seconds <= 0.0 ||
      !std::isfinite(subwindow_seconds) || subwindow_seconds <= 0.0) {
    throw std::invalid_argument(
        "hotspot: window_seconds and subwindow_seconds must be finite and positive");
  }
  const double count = window_seconds / subwindow_seconds;
  if (!(count <= 9007199254740992.0)) {
    throw std::invalid_argument(
        "hotspot: window_seconds / subwindow_seconds gives more than 2^53 subwindows");
  }
  return std::max<size_t>(1, static_cast<size_t>(count));
}

}  // namespace

VdTraceIndex::VdTraceIndex(const Fleet& fleet, const TraceDataset& traces) {
  per_vd_.resize(fleet.vds.size());
  for (const TraceRecord& r : traces.records) {
    per_vd_[r.vd.value()].push_back(&r);
  }
}

std::span<const TraceRecord* const> VdTraceIndex::ForVd(VdId vd) const {
  return per_vd_[vd.value()];
}

std::vector<VdId> VdTraceIndex::ActiveVds(size_t min_records) const {
  std::vector<std::pair<size_t, uint32_t>> sized;
  for (uint32_t v = 0; v < per_vd_.size(); ++v) {
    if (per_vd_[v].size() >= min_records) {
      sized.emplace_back(per_vd_[v].size(), v);
    }
  }
  std::sort(sized.begin(), sized.end(), std::greater<>());
  std::vector<VdId> out;
  out.reserve(sized.size());
  for (const auto& [count, v] : sized) {
    out.push_back(VdId(v));
  }
  return out;
}

std::optional<HotBlockStats> AnalyzeHottestBlock(std::span<const TraceRecord* const> vd_traces,
                                                 uint64_t capacity_bytes, uint64_t block_bytes,
                                                 double window_seconds,
                                                 double subwindow_seconds) {
  const size_t subwindows = SubwindowCount(window_seconds, subwindow_seconds);
  if (vd_traces.empty() || block_bytes == 0 || capacity_bytes == 0) {
    return std::nullopt;
  }

  std::unordered_map<uint64_t, uint64_t> block_counts;
  std::unordered_set<uint64_t> touched_chunks;  // 1 MiB granularity
  for (const TraceRecord* r : vd_traces) {
    ++block_counts[r->offset / block_bytes];
    touched_chunks.insert(r->offset / kMiB);
  }
  uint64_t hottest_block = 0;
  uint64_t hottest_count = 0;
  for (const auto& [block, count] : block_counts) {  // ebs-lint: allow(unordered-iter) max with smallest-block tie-break, order-insensitive
    if (count > hottest_count || (count == hottest_count && block < hottest_block)) {
      hottest_count = count;
      hottest_block = block;
    }
  }

  HotBlockStats stats;
  stats.block_index = hottest_block;
  stats.block_bytes = block_bytes;
  stats.total_accesses = vd_traces.size();
  stats.block_accesses = hottest_count;
  stats.access_rate =
      static_cast<double>(hottest_count) / static_cast<double>(vd_traces.size());
  stats.size_fraction =
      static_cast<double>(block_bytes) / static_cast<double>(capacity_bytes);
  const double touched_bytes =
      static_cast<double>(touched_chunks.size()) * static_cast<double>(kMiB);
  stats.touched_fraction =
      touched_bytes <= 0.0
          ? 0.0
          : std::min(1.0, static_cast<double>(block_bytes) / touched_bytes);

  uint64_t reads = 0;
  uint64_t writes = 0;
  std::vector<uint64_t> sub_total(subwindows, 0);
  std::vector<uint64_t> sub_block(subwindows, 0);
  for (const TraceRecord* r : vd_traces) {
    const bool in_block = r->offset / block_bytes == hottest_block;
    if (in_block) {
      (r->op == OpType::kRead ? reads : writes) += 1;
    }
    // Clamped as a double: a timestamp past the window (or before 0) must not
    // reach the integer cast.
    const double slot = r->timestamp / subwindow_seconds;
    const size_t w = slot < static_cast<double>(subwindows - 1)
                         ? static_cast<size_t>(std::max(slot, 0.0))
                         : subwindows - 1;
    ++sub_total[w];
    if (in_block) {
      ++sub_block[w];
    }
  }
  stats.wr_ratio = WriteToReadRatio(static_cast<double>(writes), static_cast<double>(reads));

  size_t active_windows = 0;
  size_t hot_windows = 0;
  for (size_t w = 0; w < subwindows; ++w) {
    if (sub_total[w] == 0) {
      continue;
    }
    ++active_windows;
    const double rate =
        static_cast<double>(sub_block[w]) / static_cast<double>(sub_total[w]);
    if (rate >= stats.access_rate) {
      ++hot_windows;
    }
  }
  stats.hot_rate =
      active_windows == 0 ? 0.0
                          : static_cast<double>(hot_windows) / static_cast<double>(active_windows);
  return stats;
}

CacheReplayResult ReplayVdCache(std::span<const TraceRecord* const> vd_traces,
                                uint64_t capacity_bytes, uint64_t block_bytes,
                                CachePolicy policy, std::vector<uint8_t>* full_hits) {
  CacheReplayResult result;
  if (full_hits != nullptr) {
    full_hits->assign(vd_traces.size(), 0);
  }
  if (vd_traces.empty() || block_bytes < kPageBytes) {
    return result;  // no page fits: a zero-page cache
  }
  const size_t capacity_pages = static_cast<size_t>(block_bytes / kPageBytes);

  std::unique_ptr<PageCache> cache;
  if (policy == CachePolicy::kFrozenHot) {
    const auto stats = AnalyzeHottestBlock(vd_traces, capacity_bytes, block_bytes,
                                           /*window_seconds=*/3600.0,
                                           /*subwindow_seconds=*/3600.0);
    const uint64_t first_page =
        stats ? stats->block_index * (block_bytes / kPageBytes) : 0;
    cache = MakeFrozenCache(first_page, capacity_pages);
  } else {
    cache = MakeCache(policy, capacity_pages);
  }

  // One run per record. A timed-out IO never reached the data path
  // (OnlineCacheSink skips it too), so its run touches no page.
  std::vector<PageRun> runs(vd_traces.size());
  for (size_t i = 0; i < vd_traces.size(); ++i) {
    const TraceRecord* r = vd_traces[i];
    if (!r->fault_timed_out) {
      runs[i] = {r->offset / kPageBytes,
                 std::max<uint32_t>(1, static_cast<uint32_t>(r->size_bytes / kPageBytes))};
    }
  }
  const PageReplayTotals totals =
      ReplayRuns(*cache, runs,
                 full_hits != nullptr ? std::span<uint8_t>(*full_hits) : std::span<uint8_t>());
  result.page_accesses = totals.accesses;
  result.hit_ratio = totals.accesses == 0 ? 0.0
                                          : static_cast<double>(totals.hits) /
                                                static_cast<double>(totals.accesses);
  return result;
}

}  // namespace ebs
