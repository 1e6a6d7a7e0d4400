// One generation shard of the replay engine.
//
// A shard owns a subset of the fleet's VMs and synthesizes their traffic on
// one worker thread, a block of kReplayBlockSteps seconds at a time. Inside a
// block it steps stream by stream, so each VD stream's state stays in cache
// for the whole block, then sorts each second's events. Because QPs and VDs
// belong to exactly one VM, a shard writes its metrics straight into the
// engine's shared per-QP and per-VD arrays without synchronization. The
// storage domain is one of those arrays: each VD's delivered series, which its
// segments read through the (segment, VD, weights) entries the shard records
// in Init.

#ifndef SRC_REPLAY_SHARD_H_
#define SRC_REPLAY_SHARD_H_

#include <cstddef>
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

// Steps per ShardBatch; the merge delivers them to the sinks one at a time.
inline constexpr size_t kReplayBlockSteps = 32;

// One stream's events for the steps [first_step, first_step + steps.size()),
// each step's events sorted by ReplayEventBefore. A source's batches cover
// its steps in order; only the last one, or the one cut at an abort step, may
// hold fewer than kReplayBlockSteps steps.
struct ShardBatch {
  uint32_t first_step = 0;
  std::vector<std::vector<ReplayEvent>> steps;
};

class ReplayShard {
 public:
  // `faults` may be nullptr (healthy run). When set, GenerateBlock applies
  // the driver to every record it emits and ends each block before the
  // scheduled abort step, where the next call throws UnrecoverableFaultError;
  // the shard's tallies are in fault_stats().
  ReplayShard(const Fleet& fleet, const WorkloadConfig& config, uint32_t shard_index,
              std::vector<uint32_t> vm_ids, const FaultDriver* faults = nullptr);

  // Builds every VM stream of the shard — the expensive part (spatial models,
  // whole-window rate processes). Runs on the worker thread; writes only this
  // shard's VDs' slots of `result`'s pre-sized arrays and of `delivered_vd`
  // (its storage-domain sources), which are disjoint across shards.
  void Init(WorkloadResult* result, std::vector<RwSeries>* delivered_vd);

  // Generates the block that starts at `first_step`: up to kReplayBlockSteps
  // steps, fewer at the window's end or before the abort step. Blocks must
  // be generated in order, each starting where the previous one ended.
  ShardBatch GenerateBlock(size_t first_step);

  // The segment entries of this shard's VDs, in build order. Stable after
  // Init.
  const std::vector<SegmentEntry>& segment_entries() const { return segment_entries_; }

  // Fault accounting over this shard's records; sums across shards to the
  // run's totals (all fields are per-IO sums).
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

  // Per-block scratch, reused across blocks: each step's records with their
  // per-VD sequences, in emission order, and the sort keys of one step.
  struct SortKey {
    double timestamp = 0.0;
    uint32_t vd = 0;
    uint32_t index = 0;  // into the step's records; emission order within a VD
  };
  std::vector<std::vector<TraceRecord>> step_records_;
  std::vector<std::vector<uint64_t>> step_sequences_;
  std::vector<SortKey> keys_;
};

}  // namespace ebs

#endif  // SRC_REPLAY_SHARD_H_
