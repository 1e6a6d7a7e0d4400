#include "src/trace/rollup_dense.h"

#include <utility>

namespace ebs {

const std::vector<RwSeries>& RollupCache::Get(Level level) const {
  // Indexed by Level, in declaration order.
  static constexpr std::vector<RwSeries> (*kFolds[])(const Fleet&, const RollupSources&) = {
      RollupToVd,          RollupToVm,          RollupToUser,       RollupToWt,
      RollupToComputeNode, RollupToBlockServer, RollupToStorageNode};
  Slot& slot = slots_[level];
  util::MutexLock lock(&slot.mu);
  if (!slot.value.has_value()) {
    if (level == kSeg) {
      const SegmentSeriesMap& segments = *sources_.segment_series;
      std::vector<RwSeries> flat;
      flat.reserve(segments.size());
      for (size_t i = 0; i < segments.size(); ++i) {
        flat.push_back(segments[i].Materialize());
      }
      slot.value = std::move(flat);
    } else {
      slot.value = kFolds[level](fleet_, sources_);
    }
  }
  return *slot.value;
}

void RollupCache::FillAll() const {
  for (int level = 0; level < kLevelCount; ++level) {
    Get(static_cast<Level>(level));
  }
}

}  // namespace ebs
