#include "src/replay/shard.h"

#include <algorithm>

namespace ebs {

ReplayShard::ReplayShard(const Fleet& fleet, const WorkloadConfig& config, uint32_t shard_index,
                         std::vector<uint32_t> vm_ids, const FaultDriver* faults)
    : fleet_(fleet),
      config_(config),
      shard_index_(shard_index),
      vm_ids_(std::move(vm_ids)),
      faults_(faults != nullptr && faults->armed() ? faults : nullptr),
      temporal_({config.window_steps, config.step_seconds}),
      latency_model_(config.latency) {
  if (!config.scenario.empty()) {
    scenario_.emplace(fleet, config.scenario, config.window_steps);
  }
}

void ReplayShard::Init(std::vector<RwSeries>* qp_series, std::vector<RwSeries>* offered_vd,
                       std::vector<RwSeries>* delivered_vd,
                       std::vector<VdGroundTruth>* vd_truth) {
  const Rng root(config_.seed);
  for (const uint32_t vm_id : vm_ids_) {
    VmStreamSet streams = BuildVmStreams(fleet_, config_, fleet_.vms[vm_id], temporal_,
                                         latency_model_, root, qp_series, offered_vd,
                                         delivered_vd, vd_truth, &segment_entries_,
                                         scenario_ ? &*scenario_ : nullptr);
    for (auto& stream : streams.streams) {
      streams_.push_back(std::move(stream));
    }
  }
  stream_sequence_.assign(streams_.size(), 0);
}

ShardBatch ReplayShard::GenerateStep(size_t t) {
  ShardBatch batch;
  batch.step = static_cast<uint32_t>(t);
  bool step_degraded = false;
  if (faults_ != nullptr) {
    faults_->CheckUnrecoverable(t);
    // Every record of this step maps to step index t, so one degraded check
    // covers the whole batch: a healthy step only counts its IOs.
    step_degraded = faults_->StepDegraded(t);
  }
  for (size_t i = 0; i < streams_.size(); ++i) {
    scratch_.clear();
    streams_[i]->Step(t, &scratch_);
    if (faults_ != nullptr && !step_degraded) {
      fault_stats_.issued += scratch_.size();
      fault_stats_.completed += scratch_.size();
    }
    for (TraceRecord& record : scratch_) {
      if (step_degraded) {
        // Pure per-record transform: applying it shard-locally here equals
        // the batch generator's post-sort application, record for record.
        faults_->Apply(&record, &fault_stats_);
      }
      ReplayEvent event;
      event.record = record;
      event.step = batch.step;
      event.shard = shard_index_;
      event.sequence = stream_sequence_[i]++;
      batch.events.push_back(std::move(event));
    }
  }
  // Sort the second's events by the global stream order, making each shard's
  // stream totally ordered (timestamps never cross step boundaries).
  std::sort(batch.events.begin(), batch.events.end(), ReplayEventBefore);
  return batch;
}

}  // namespace ebs
