#include "src/cache/online_hotspot.h"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "src/topology/entities.h"
#include "src/util/parallel.h"

namespace ebs {

namespace {

// A replay chunk's VDs hold about this many recorded entries (the last chunk
// takes what is left), so a run's VDs spread over the helpers by work.
constexpr size_t kChunkEntries = size_t{1} << 12;

}  // namespace

OnlineCacheSink::OnlineCacheSink(CachePolicy policy, uint64_t block_bytes)
    : policy_(policy), capacity_pages_(static_cast<size_t>(block_bytes / kPageBytes)) {
  if (policy == CachePolicy::kFrozenHot) {
    throw std::invalid_argument(
        "OnlineCacheSink: FrozenHot needs a hottest-block pre-pass; use ReplayVdCache");
  }
  if (capacity_pages_ == 0) {
    throw std::invalid_argument("OnlineCacheSink: block_bytes must hold at least one page");
  }
}

void OnlineCacheSink::OnStart(const Fleet& fleet, size_t /*window_steps*/,
                              double /*step_seconds*/) {
  recorded_.clear();
  per_vd_.assign(fleet.vds.size(), PageReplayTotals{});
  total_hits_ = 0;
  total_accesses_ = 0;
  fault_bypassed_ = 0;
  admission_skipped_ = 0;
}

void OnlineCacheSink::OnEvent(const ReplayEvent& event) {
  event_counter_->Increment();
  if (event.record.fault_timed_out) {
    ++fault_bypassed_;
    bypass_counter_->Increment();
    return;
  }
  if (!admission_enabled_) {
    ++admission_skipped_;
    return;
  }
  // size_bytes is 32-bit, so the page count fits the entry's 32 bits.
  const uint32_t pages =
      std::max<uint32_t>(1, static_cast<uint32_t>(event.record.size_bytes / kPageBytes));
  recorded_.push_back({event.record.offset / kPageBytes, event.record.vd.value(), pages});
}

void OnlineCacheSink::OnFinish() {
  obs::ScopedTimer timer(replay_timer_);
  // Stable counting sort by VD: each VD's entries keep their stream order,
  // the only order its hits depend on.
  const size_t vds = per_vd_.size();
  std::vector<size_t> begin(vds + 1, 0);
  for (const Access& access : recorded_) {
    ++begin[access.vd + 1];
  }
  for (size_t vd = 0; vd < vds; ++vd) {
    begin[vd + 1] += begin[vd];
  }
  std::vector<PageRun> grouped(recorded_.size());
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  for (const Access& access : recorded_) {
    grouped[next[access.vd]++] = {access.start_page, access.pages};
  }
  std::vector<Access>().swap(recorded_);  // replayed once; free the buffer

  // Consecutive chunks of VDs on the helpers: a chunk builds, fills and frees
  // its own VDs' caches, one at a time, and writes only their per_vd_ entries.
  const std::span<const PageRun> runs(grouped);
  ForEachChunk(
      vds, kChunkEntries, [&](size_t vd) { return begin[vd + 1] - begin[vd]; },
      [&](size_t first, size_t last) {
        for (size_t vd = first; vd < last; ++vd) {
          if (begin[vd] == begin[vd + 1]) {
            continue;
          }
          const std::unique_ptr<PageCache> cache = MakeCache(policy_, capacity_pages_);
          per_vd_[vd] = ReplayRuns(*cache, runs.subspan(begin[vd], begin[vd + 1] - begin[vd]));
        }
      });
  for (const PageReplayTotals& totals : per_vd_) {
    total_hits_ += totals.hits;
    total_accesses_ += totals.accesses;
  }
}

CacheReplayResult OnlineCacheSink::ResultFor(VdId vd) const {
  const PageReplayTotals& totals = per_vd_[vd.value()];
  CacheReplayResult result;
  result.page_accesses = totals.accesses;
  result.hit_ratio = totals.accesses == 0 ? 0.0
                                          : static_cast<double>(totals.hits) /
                                                static_cast<double>(totals.accesses);
  return result;
}

}  // namespace ebs
