#include "src/replay/store_source.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace ebs {

StoreReplaySource::StoreReplaySource(const Fleet& fleet, const std::string& path)
    : fleet_(fleet), reader_(path) {
  if (!reader_.info().has_metrics) {
    throw TraceStoreError(StoreErrorCode::kNoMetrics,
                          "store replay needs a metrics section (use "
                          "WriteWorkloadToStore or StoreWriterSink::Finish(result))");
  }
}

void StoreReplaySource::PrepareResult(WorkloadResult* result) {
  reader_.ReadMetricsInto(result);
  if (result->metrics.qp_series.size() != fleet_.qps.size() ||
      result->offered_vd.size() != fleet_.vds.size() ||
      result->vd_truth.size() != fleet_.vds.size()) {
    throw TraceStoreError(StoreErrorCode::kMismatch,
                          "store metrics were recorded against a different fleet");
  }
  const TraceStoreMeta& meta = reader_.info().meta;
  result->traces.window_seconds = meta.window_seconds;
  result->traces.sampling_rate = meta.sampling_rate;

  // The decoded segment entries are the recorded map's own (derived entries
  // over its source series), in ascending id order, so checking the last id
  // bounds them all.
  const std::vector<SegmentEntry>& entries = result->metrics.segment_series.entries();
  if (!entries.empty() && entries.back().id >= fleet_.segments.size()) {
    throw TraceStoreError(StoreErrorCode::kMismatch,
                          "store segment id beyond the fleet's registry");
  }
}

void StoreReplaySource::ValidateRecord(const TraceRecord& record) const {
  const bool in_range = record.user.value() < fleet_.users.size() &&
                        record.vm.value() < fleet_.vms.size() &&
                        record.vd.value() < fleet_.vds.size() &&
                        record.qp.value() < fleet_.qps.size() &&
                        record.wt.value() < fleet_.wts.size() &&
                        record.cn.value() < fleet_.nodes.size() &&
                        record.segment.value() < fleet_.segments.size() &&
                        record.bs.value() < fleet_.block_servers.size() &&
                        record.sn.value() < fleet_.storage_nodes.size();
  if (!in_range) {
    throw TraceStoreError(StoreErrorCode::kMismatch,
                          "trace record ids beyond the fleet's entity counts");
  }
}

void StoreReplaySource::StartStreams(const std::vector<BoundedQueue<ShardBatch>*>& queues) {
  producer_ = std::thread([this, queue = queues[0]] { StreamChunks(queue); });
}

void StoreReplaySource::StreamChunks(BoundedQueue<ShardBatch>* queue) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::ObsHistogram* decode_timer = registry.GetTimer("replay.store.decode_chunk");
  obs::ObsHistogram* push_wait = registry.GetTimer("replay.queue.push_wait");
  obs::Counter* dropped = registry.GetCounter("replay.batches_dropped");
  try {
    const uint32_t total_steps = reader_.info().meta.window_steps;
    // Reconstructs the per-VD emission indices the generator path stamps.
    // They only matter as merge tie-breaks, and a store source is a single
    // totally-ordered stream — but keeping them makes the event streams of
    // the two paths identical field for field. Indexed by VdId, which
    // ValidateRecord bounds-checks before use.
    std::vector<uint64_t> vd_sequence(fleet_.vds.size(), 0);
    std::vector<TraceRecord> records;
    std::vector<uint32_t> steps;
    ShardBatch batch;
    std::vector<ReplayEvent> events;  // the step being filled
    uint32_t step = 0;
    // Closes the step being filled and hands the block over once it holds
    // kReplayBlockSteps steps or the window's last one. False once the
    // engine closed the queue.
    const auto end_step = [&] {
      batch.steps.push_back(std::exchange(events, {}));
      ++step;
      if (batch.steps.size() < kReplayBlockSteps && step < total_steps) {
        return true;
      }
      obs::ScopedTimer wait_timer(push_wait);
      if (!queue->Push(std::move(batch))) {
        dropped->Increment();
        return false;
      }
      batch = ShardBatch{};
      batch.first_step = step;
      return true;
    };
    for (size_t chunk = 0; chunk < reader_.chunks().size(); ++chunk) {
      records.clear();
      steps.clear();
      {
        obs::ScopedTimer timer(decode_timer);
        reader_.ReadChunk(chunk, &records, &steps);
      }
      for (size_t i = 0; i < records.size(); ++i) {
        // Within a chunk the reader validated step monotonicity and bounded
        // every step by the window; across chunks monotonicity is this
        // stream's invariant.
        if (steps[i] < step) {
          throw TraceStoreError(StoreErrorCode::kChunkCorrupt,
                                "step regression across chunk boundary");
        }
        while (step < steps[i]) {
          if (!end_step()) {
            return;
          }
        }
        ValidateRecord(records[i]);
        events.push_back({records[i], steps[i], 0, vd_sequence[records[i].vd.value()]++});
      }
    }
    while (step < total_steps) {
      if (!end_step()) {
        return;
      }
    }
  } catch (...) {
    util::MutexLock lock(&error_mu_);
    error_ = std::current_exception();
  }
  queue->Close();
}

void StoreReplaySource::Join() {
  if (producer_.joinable()) {
    producer_.join();
  }
}

std::exception_ptr StoreReplaySource::TakeError() {
  util::MutexLock lock(&error_mu_);
  return std::exchange(error_, nullptr);
}

}  // namespace ebs
