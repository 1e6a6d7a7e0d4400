// Online per-VD cache replay (§7.3.1) for the replay engine.
//
// OnlineCacheSink feeds each VD's sampled IOs through its own page cache as
// the merged stream plays, instead of materializing the trace dataset and
// replaying per VD afterwards. Works for the eviction-based policies (FIFO,
// LRU, LFU, CLOCK, 2Q); FrozenHot needs a hottest-block pre-pass over the
// finished trace and stays offline-only.

#ifndef SRC_CACHE_ONLINE_HOTSPOT_H_
#define SRC_CACHE_ONLINE_HOTSPOT_H_

#include <cstdint>
#include <memory>
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

  // Per-VD replay outcome, equal to ReplayVdCache over the same VD's trace
  // records (zero-initialized for VDs that saw no sampled IO).
  CacheReplayResult ResultFor(VdId vd) const;
  uint64_t total_page_accesses() const { return total_accesses_; }
  uint64_t total_page_hits() const { return total_hits_; }
  // Degraded-mode fallback: IOs a fault timed out never reached the data
  // path, so they bypass the cache — no warming, no access counted.
  // ReplayVdCache applies the same skip, keeping online == offline under any
  // fault schedule.
  uint64_t fault_bypassed_events() const { return fault_bypassed_; }

  // Closed-loop actuation hook: while admission is disabled, events bypass
  // the caches entirely — no page is admitted, no access or hit is counted
  // (the IO takes the uncached path). Enabled by default, so a run that never
  // toggles it is bit-identical to the seed behavior. The control plane flips
  // this at period boundaries when hotspot detection says caching would (or
  // would not) pay.
  void set_admission_enabled(bool enabled) { admission_enabled_ = enabled; }
  bool admission_enabled() const { return admission_enabled_; }
  uint64_t admission_skipped_events() const { return admission_skipped_; }

 private:
  struct VdCacheState {
    std::unique_ptr<PageCache> cache;  // created on the VD's first IO
    uint64_t hits = 0;
    uint64_t accesses = 0;
  };

  CachePolicy policy_;
  uint64_t block_bytes_;
  size_t capacity_pages_;
  std::vector<VdCacheState> per_vd_;
  uint64_t total_hits_ = 0;
  uint64_t total_accesses_ = 0;
  uint64_t fault_bypassed_ = 0;
  bool admission_enabled_ = true;
  uint64_t admission_skipped_ = 0;
  obs::Counter* event_counter_ = obs::MetricRegistry::Global().GetCounter("sink.cache.events");
  obs::Counter* bypass_counter_ =
      obs::MetricRegistry::Global().GetCounter("sink.cache.fault_bypassed");
};

}  // namespace ebs

#endif  // SRC_CACHE_ONLINE_HOTSPOT_H_
