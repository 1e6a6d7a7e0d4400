#include "src/trace/rollup_dense.h"

namespace ebs {

const std::vector<RwSeries>& RollupCache::Get(Level level) const {
  // Indexed by Level, in declaration order.
  static constexpr std::vector<RwSeries> (*kFolds[])(const Fleet&, const RollupSources&) = {
      RollupToVd,          RollupToVm,          RollupToUser,       RollupToWt,
      RollupToComputeNode, RollupToBlockServer, RollupToStorageNode,
      [](const Fleet&, const RollupSources& sources) { return MaterializeSegments(sources); }};
  Slot& slot = slots_[level];
  util::MutexLock lock(&slot.mu);
  if (!slot.value.has_value()) {
    slot.value = kFolds[level](fleet_, sources_);
  }
  return *slot.value;
}

void RollupCache::FillAll() const {
  for (int level = 0; level < kLevelCount; ++level) {
    Get(static_cast<Level>(level));
  }
}

}  // namespace ebs
