// RollupCache: the entity-level rollups of one finished run, held for both
// facades and the replay rollup sink. Each level is one RollupTo* fold
// (src/trace/aggregate.h), or MaterializeSegments for the segment level, run
// on first access; each fold fills chunks of entities on
// DefaultGenerateWorkers() helpers and the reading thread.

#ifndef SRC_TRACE_ROLLUP_DENSE_H_
#define SRC_TRACE_ROLLUP_DENSE_H_

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/aggregate.h"
#include "src/trace/records.h"
#include "src/util/thread_annotations.h"

namespace ebs {

// The entity-level rollups of one finished run, each level folded once on
// first access and cached. Thread-safe: each level fills under its own
// annotated mutex, so concurrent first readers serialize on the fill (which
// starts its own helpers) and later readers pay one uncontended lock. A filled
// level is never reset, so the returned reference outlives the lock; a fill
// that throws, on any of its threads, leaves the level empty for the next
// reader to retry.
class RollupCache {
 public:
  // `fleet` and everything `sources` points at must stay alive and unchanged
  // until every level has been read once (FillAll() ends that dependency).
  RollupCache(const Fleet& fleet, RollupSources sources)
      : fleet_(fleet), sources_(std::move(sources)) {}

  const std::vector<RwSeries>& vd() const { return Get(kVd); }
  const std::vector<RwSeries>& vm() const { return Get(kVm); }
  const std::vector<RwSeries>& user() const { return Get(kUser); }
  const std::vector<RwSeries>& wt() const { return Get(kWt); }
  const std::vector<RwSeries>& cn() const { return Get(kCn); }
  const std::vector<RwSeries>& bs() const { return Get(kBs); }
  const std::vector<RwSeries>& sn() const { return Get(kSn); }
  // Active-segment series, ascending segment id, each materialized from its
  // source series on first access (MaterializeSegments).
  const std::vector<RwSeries>& seg() const { return Get(kSeg); }

  void FillAll() const;

 private:
  enum Level { kVd, kVm, kUser, kWt, kCn, kBs, kSn, kSeg, kLevelCount };
  struct Slot {
    util::Mutex mu;
    std::optional<std::vector<RwSeries>> value EBS_GUARDED_BY(mu);
  };

  const std::vector<RwSeries>& Get(Level level) const;

  const Fleet& fleet_;
  RollupSources sources_;
  mutable std::array<Slot, kLevelCount> slots_;
};

}  // namespace ebs

#endif  // SRC_TRACE_ROLLUP_DENSE_H_
