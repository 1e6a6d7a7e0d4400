// One generation shard of the replay engine.
//
// A shard owns a subset of the fleet's VMs and synthesizes their traffic on
// one worker thread, one second at a time. Because QPs and VDs belong to
// exactly one VM, a shard writes its metrics straight into the engine's
// shared per-QP and per-VD arrays without synchronization. The storage domain
// is one of those arrays: each VD's delivered series, which its segments
// read through the (segment, VD, weights) entries the shard records in Init.

#ifndef SRC_REPLAY_SHARD_H_
#define SRC_REPLAY_SHARD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/fault/driver.h"
#include "src/scenario/model.h"
#include "src/replay/sink.h"
#include "src/topology/fleet.h"
#include "src/topology/latency.h"
#include "src/workload/generator.h"
#include "src/workload/vd_stream.h"

namespace ebs {

// The events of one shard for one second, sorted by ReplayEventBefore.
struct ShardBatch {
  uint32_t step = 0;
  std::vector<ReplayEvent> events;
};

class ReplayShard {
 public:
  // `faults` may be nullptr (healthy run). When set, GenerateStep applies the
  // driver to every record it emits and throws UnrecoverableFaultError at the
  // scheduled abort step; the shard's tallies are in fault_stats().
  ReplayShard(const Fleet& fleet, const WorkloadConfig& config, uint32_t shard_index,
              std::vector<uint32_t> vm_ids, const FaultDriver* faults = nullptr);

  // Builds every VM stream of the shard — the expensive part (spatial models,
  // whole-window rate processes). Runs on the worker thread; writes only this
  // shard's VDs' slots of the shared arrays, which are disjoint across
  // shards.
  void Init(std::vector<RwSeries>* qp_series, std::vector<RwSeries>* offered_vd,
            std::vector<RwSeries>* delivered_vd, std::vector<VdGroundTruth>* vd_truth);

  // Generates second `t` for every stream. Steps must be generated in order.
  ShardBatch GenerateStep(size_t t);

  // The segment entries of this shard's VDs, in build order. Stable after
  // Init.
  const std::vector<SegmentEntry>& segment_entries() const { return segment_entries_; }

  uint32_t shard_index() const { return shard_index_; }
  size_t stream_count() const { return streams_.size(); }

  // Fault accounting over this shard's records; sums across shards to the
  // batch generator's totals (all fields are per-IO sums).
  const FaultStats& fault_stats() const { return fault_stats_; }

 private:
  const Fleet& fleet_;
  const WorkloadConfig& config_;
  uint32_t shard_index_;
  std::vector<uint32_t> vm_ids_;
  const FaultDriver* faults_;  // not owned; nullptr when unarmed
  FaultStats fault_stats_;

  // Per-shard compiled scenario (absent when config.scenario is empty).
  // Compilation is deterministic in (spec, fleet, window), so every shard's
  // copy is identical; building it in the constructor (caller thread) means
  // a spec that fails fleet validation throws before any worker starts.
  std::optional<scenario::ScenarioModel> scenario_;

  RateProcessGenerator temporal_;
  LatencyModel latency_model_;

  std::vector<SegmentEntry> segment_entries_;

  std::vector<std::unique_ptr<VdTrafficStream>> streams_;
  std::vector<uint64_t> stream_sequence_;  // per-VD emission counters
  std::vector<TraceRecord> scratch_;
};

}  // namespace ebs

#endif  // SRC_REPLAY_SHARD_H_
