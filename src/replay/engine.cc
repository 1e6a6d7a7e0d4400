#include "src/replay/engine.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.h"
#include "src/replay/bounded_queue.h"
#include "src/replay/generator_source.h"
#include "src/replay/shard.h"

namespace ebs {

ReplayEngine::ReplayEngine(const Fleet& fleet, WorkloadConfig config, ReplayOptions options)
    : ReplayEngine(fleet,
                   std::make_unique<GeneratorShardSource>(fleet, std::move(config),
                                                          options.worker_threads),
                   options) {}

ReplayEngine::ReplayEngine(const Fleet& fleet, std::unique_ptr<ReplaySource> source,
                           ReplayOptions options)
    : fleet_(fleet), options_(options), source_(std::move(source)) {}

void ReplayEngine::AddSink(ReplaySink* sink) { sinks_.push_back(sink); }

WorkloadResult ReplayEngine::Run() {
  WorkloadResult result;
  source_->PrepareResult(&result);
  const size_t steps = source_->window_steps();
  const double dt = source_->step_seconds();

  const size_t stream_count = source_->stream_count();
  stats_ = ReplayStats{};
  stats_.shards = stream_count;

  std::vector<std::unique_ptr<BoundedQueue<ShardBatch>>> queues;
  std::vector<BoundedQueue<ShardBatch>*> queue_ptrs;
  queues.reserve(stream_count);
  queue_ptrs.reserve(stream_count);
  for (size_t s = 0; s < stream_count; ++s) {
    queues.push_back(std::make_unique<BoundedQueue<ShardBatch>>(
        std::max(options_.queue_capacity, kMinQueueBlocks)));
    queue_ptrs.push_back(queues.back().get());
  }

  // Self-observability of the consumer side: queue wait, sampled merge
  // backlog, batches dropped on abort. (Producer-side timers live in the
  // source.) Pure wall-clock observation — it cannot perturb the stream.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::ObsHistogram* pop_wait = registry.GetTimer("replay.queue.pop_wait");
  obs::ObsHistogram* backlog = registry.GetHistogram("replay.queue.occupancy", "batches");
  obs::ObsHistogram* sink_step = registry.GetTimer("replay.sink.step_complete");
  obs::Counter* dropped = registry.GetCounter("replay.batches_dropped");
  obs::Counter* merged = registry.GetCounter("replay.events_merged");

  source_->StartStreams(queue_ptrs);

  auto abort_and_join = [&] {
    // CloseAndDrain (not plain Close): batches already produced but never
    // merged must land in the dropped counter, not vanish silently.
    for (auto& queue : queues) {
      dropped->Add(queue->CloseAndDrain());
    }
    source_->Join();
  };
  auto rethrow_source_error = [&] {
    if (std::exception_ptr error = source_->TakeError()) {
      std::rethrow_exception(error);
    }
  };

  try {
    // After this, the shared metric slots of every stream hold final values
    // and the segment entries are complete.
    source_->AwaitReady();

    for (ReplaySink* sink : sinks_) {
      sink->OnStart(fleet_, steps, dt);
    }

    // Each stream's current block. Its next block is popped at the first step
    // past it, so the merge needs only one block per stream in hand.
    std::vector<ShardBatch> current(stream_count);
    std::vector<const std::vector<ReplayEvent>*> runs(stream_count);  // step t's events
    using Head = std::pair<size_t, size_t>;  // (index in run, stream)
    const auto later = [&runs](const Head& a, const Head& b) {
      return ReplayEventBefore((*runs[b.second])[b.first], (*runs[a.second])[a.first]);
    };
    std::vector<Head> heap;
    heap.reserve(stream_count);
    const bool observing = registry.enabled();
    for (size_t t = 0; t < steps; ++t) {
      for (size_t s = 0; s < stream_count; ++s) {
        ShardBatch& batch = current[s];
        if (t >= batch.first_step + batch.steps.size()) {
          if (observing) {
            // Depth just before the pop: how far production runs ahead of
            // the merge (capacity = full backpressure, 0 = merge-bound).
            backlog->Record(queues[s]->size());
          }
          bool popped = false;
          {
            obs::ScopedTimer wait_timer(pop_wait);
            popped = queues[s]->Pop(&batch);
          }
          if (!popped || batch.first_step != t || batch.steps.empty()) {
            throw std::runtime_error("replay stream ended before the window completed");
          }
        }
        runs[s] = &batch.steps[t - batch.first_step];
      }
      // K-way heap merge of the second's per-stream sorted runs. Every
      // stream is totally ordered by ReplayEventBefore (each step is sorted
      // and timestamps never cross step boundaries), so popping the least
      // head yields the global stream order.
      heap.clear();
      for (size_t s = 0; s < stream_count; ++s) {
        if (!runs[s]->empty()) {
          heap.push_back({0, s});
        }
      }
      std::make_heap(heap.begin(), heap.end(), later);
      uint64_t step_events = 0;
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const auto [index, s] = heap.back();
        const ReplayEvent& event = (*runs[s])[index];
        ++step_events;
        for (ReplaySink* sink : sinks_) {
          sink->OnEvent(event);
        }
        if (index + 1 < runs[s]->size()) {
          heap.back().first = index + 1;
          std::push_heap(heap.begin(), heap.end(), later);
        } else {
          heap.pop_back();
        }
      }
      stats_.events += step_events;
      merged->Add(step_events);

      const ReplayStepView view{t, dt, result.metrics.qp_series, result.offered_vd,
                                result.metrics.segment_series};
      obs::ScopedTimer sink_timer(sink_step);
      for (ReplaySink* sink : sinks_) {
        sink->OnStepComplete(view);
      }
      sink_timer.Stop();
    }
  } catch (...) {
    abort_and_join();
    rethrow_source_error();  // prefer the root cause over the merge symptom
    throw;
  }

  source_->Join();
  rethrow_source_error();

  source_->Finalize(&result);
  // Counted once per run, here rather than per FaultDriver: a live run with
  // control builds a second driver for the plane, and store replay builds
  // none without control but decodes the recorded count.
  registry.GetCounter("fault.degraded_steps")->Add(result.faults.degraded_steps);
  if (source_->sampling_rate() > 0.0) {
    stats_.modeled_ios = static_cast<double>(stats_.events) / source_->sampling_rate();
  }
  for (ReplaySink* sink : sinks_) {
    sink->OnFinish();
  }
  return result;
}

}  // namespace ebs
