// Online per-VD cache replay (§7.3.1) for the replay engine.
//
// OnlineCacheSink runs the per-VD cache study inside a replay, without
// materializing the trace dataset. OnEvent only records each admitted IO as a
// compact (start page, VD, pages) entry; OnFinish groups the entries by VD,
// keeping each VD's stream order, and replays each VD through its own page
// cache with ReplayRuns, the loop ReplayVdCache runs. The VDs replay in
// chunks of consecutive VDs on the calling thread plus
// DefaultGenerateWorkers() helpers; a chunk builds each of its VDs' caches,
// fills it and frees it before the next, so at most helpers + 1 caches are
// alive at once. A VD's hits depend only on its own access order, so the
// results equal ReplayVdCache over each VD's trace records at any helper
// count. Works for the eviction-based policies (FIFO, LRU, LFU, CLOCK, 2Q);
// FrozenHot needs a hottest-block pre-pass over the finished trace and stays
// offline-only.

#ifndef SRC_CACHE_ONLINE_HOTSPOT_H_
#define SRC_CACHE_ONLINE_HOTSPOT_H_

#include <cstdint>
#include <vector>

#include "src/cache/hotspot.h"
#include "src/cache/policy.h"
#include "src/obs/metrics.h"
#include "src/replay/sink.h"
#include "src/topology/fleet.h"

namespace ebs {

class OnlineCacheSink : public ReplaySink {
 public:
  // Each VD's cache is sized to `block_bytes` worth of pages, mirroring
  // ReplayVdCache. Throws std::invalid_argument for kFrozenHot.
  OnlineCacheSink(CachePolicy policy, uint64_t block_bytes);

  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnEvent(const ReplayEvent& event) override;
  // Replays the recorded IOs VD by VD (timer `sink.cache.replay`). A replay
  // that throws (an allocation failure) is rethrown, the first in VD order,
  // once every started chunk has returned.
  void OnFinish() override;

  // The replay results below are final once OnFinish returns. OnStart resets
  // them to zero and nothing replays before OnFinish, so during a run, and
  // after a run that aborted before OnFinish, they read zero; after an
  // OnFinish that threw they are incomplete.
  //
  // Per-VD replay outcome, equal to ReplayVdCache over the same VD's trace
  // records (zero-initialized for VDs that saw no sampled IO).
  CacheReplayResult ResultFor(VdId vd) const;
  uint64_t total_page_accesses() const { return total_accesses_; }
  uint64_t total_page_hits() const { return total_hits_; }

  // The two event counters below count as the events arrive.
  //
  // Degraded-mode fallback: IOs a fault timed out never reached the data
  // path, so they bypass the cache — no warming, no access counted.
  // ReplayVdCache applies the same skip, keeping online == offline under any
  // fault schedule.
  uint64_t fault_bypassed_events() const { return fault_bypassed_; }

  // Closed-loop actuation hook: while admission is disabled, events bypass
  // the caches entirely — no page is admitted, no access or hit is counted
  // (the IO takes the uncached path). Admission is read when the event
  // arrives, so the replay in OnFinish sees only the IOs admitted then.
  // Enabled by default, so a run that never toggles it is bit-identical to
  // the seed behavior. The control plane flips this at period boundaries
  // when hotspot detection says caching would (or would not) pay.
  void set_admission_enabled(bool enabled) { admission_enabled_ = enabled; }
  bool admission_enabled() const { return admission_enabled_; }
  uint64_t admission_skipped_events() const { return admission_skipped_; }

 private:
  // One admitted IO, recorded in stream order.
  struct Access {
    uint64_t start_page = 0;
    uint32_t vd = 0;
    uint32_t pages = 0;
  };
  static_assert(sizeof(Access) == 16);

  CachePolicy policy_;
  size_t capacity_pages_;
  std::vector<Access> recorded_;  // this run's admitted IOs, until OnFinish
  std::vector<PageReplayTotals> per_vd_;
  uint64_t total_hits_ = 0;
  uint64_t total_accesses_ = 0;
  uint64_t fault_bypassed_ = 0;
  bool admission_enabled_ = true;
  uint64_t admission_skipped_ = 0;
  obs::Counter* event_counter_ = obs::MetricRegistry::Global().GetCounter("sink.cache.events");
  obs::Counter* bypass_counter_ =
      obs::MetricRegistry::Global().GetCounter("sink.cache.fault_bypassed");
  obs::ObsHistogram* replay_timer_ = obs::MetricRegistry::Global().GetTimer("sink.cache.replay");
};

}  // namespace ebs

#endif  // SRC_CACHE_ONLINE_HOTSPOT_H_
