#include "src/replay/shard.h"

#include <algorithm>
#include <tuple>

namespace ebs {

ReplayShard::ReplayShard(const Fleet& fleet, const WorkloadConfig& config, uint32_t shard_index,
                         std::vector<uint32_t> vm_ids, const FaultDriver* faults)
    : fleet_(fleet),
      config_(config),
      shard_index_(shard_index),
      vm_ids_(std::move(vm_ids)),
      faults_(faults != nullptr && faults->armed() ? faults : nullptr),
      temporal_({config.window_steps, config.step_seconds}),
      latency_model_(config.latency),
      step_records_(kReplayBlockSteps),
      step_sequences_(kReplayBlockSteps) {
  if (!config.scenario.empty()) {
    scenario_.emplace(fleet, config.scenario, config.window_steps);
  }
}

void ReplayShard::Init(WorkloadResult* result, std::vector<RwSeries>* delivered_vd) {
  const Rng root(config_.seed);
  for (const uint32_t vm_id : vm_ids_) {
    BuildVmStreams(fleet_, config_, fleet_.vms[vm_id], temporal_, latency_model_, root,
                   &result->metrics.qp_series, &result->offered_vd, delivered_vd,
                   &result->vd_truth, &segment_entries_, scenario_ ? &*scenario_ : nullptr,
                   &streams_);
  }
  stream_sequence_.assign(streams_.size(), 0);
}

ShardBatch ReplayShard::GenerateBlock(size_t first_step) {
  size_t end = std::min(first_step + kReplayBlockSteps, config_.window_steps);
  if (faults_ != nullptr) {
    faults_->CheckUnrecoverable(first_step);
    end = std::min(end, faults_->unrecoverable_step());
  }
  const size_t count = end - first_step;
  for (size_t b = 0; b < count; ++b) {
    step_records_[b].clear();
    step_sequences_[b].clear();
  }
  // Stream-major inside the block, so one stream's state stays in cache
  // across its steps; its records go to their step's bucket in emission order.
  for (size_t i = 0; i < streams_.size(); ++i) {
    uint64_t& sequence = stream_sequence_[i];
    for (size_t b = 0; b < count; ++b) {
      std::vector<TraceRecord>& records = step_records_[b];
      const size_t emitted = records.size();
      streams_[i]->Step(first_step + b, &records);
      for (size_t k = emitted; k < records.size(); ++k) {
        step_sequences_[b].push_back(sequence++);
      }
    }
  }

  ShardBatch batch;
  batch.first_step = static_cast<uint32_t>(first_step);
  batch.steps.resize(count);
  for (size_t b = 0; b < count; ++b) {
    const size_t t = first_step + b;
    std::vector<TraceRecord>& records = step_records_[b];
    if (faults_ != nullptr) {
      // Every record of this step maps to step index t, so one degraded check
      // covers the whole step: a healthy step only counts its IOs.
      if (faults_->StepDegraded(t)) {
        for (TraceRecord& record : records) {
          faults_->Apply(&record, &fault_stats_);
        }
      } else {
        fault_stats_.issued += records.size();
        fault_stats_.completed += records.size();
      }
    }
    // Sorts 16-byte keys instead of the events. A VD's records come from one
    // stream in emission order, so for equal (timestamp, vd) the record index
    // orders them as the per-VD sequence does: this is ReplayEventBefore.
    keys_.clear();
    for (size_t k = 0; k < records.size(); ++k) {
      keys_.push_back({records[k].timestamp, records[k].vd.value(), static_cast<uint32_t>(k)});
    }
    std::sort(keys_.begin(), keys_.end(), [](const SortKey& x, const SortKey& y) {
      return std::tie(x.timestamp, x.vd, x.index) < std::tie(y.timestamp, y.vd, y.index);
    });
    std::vector<ReplayEvent>& events = batch.steps[b];
    events.reserve(keys_.size());
    for (const SortKey& key : keys_) {
      events.push_back({records[key.index], static_cast<uint32_t>(t), shard_index_,
                        step_sequences_[b][key.index]});
    }
  }
  return batch;
}

}  // namespace ebs
