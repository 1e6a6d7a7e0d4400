#include "src/replay/engine.h"

#include <memory>
#include <queue>
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
    queues.push_back(std::make_unique<BoundedQueue<ShardBatch>>(options_.queue_capacity));
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

    std::vector<ShardBatch> current(stream_count);
    const bool observing = registry.enabled();
    for (size_t t = 0; t < steps; ++t) {
      for (size_t s = 0; s < stream_count; ++s) {
        if (observing) {
          // Depth just before the pop: how far production runs ahead of the
          // merge (capacity = full backpressure, 0 = merge-bound).
          backlog->Record(queues[s]->size());
        }
        bool popped = false;
        {
          obs::ScopedTimer wait_timer(pop_wait);
          popped = queues[s]->Pop(&current[s]);
        }
        if (!popped || current[s].step != t) {
          throw std::runtime_error("replay stream ended before the window completed");
        }
      }
      // K-way heap merge of the second's per-stream sorted batches. Every
      // stream is totally ordered by ReplayEventBefore (batches are sorted
      // and timestamps never cross step boundaries), so popping the least
      // head yields the global stream order.
      using Head = std::pair<size_t, size_t>;  // (index in batch, stream)
      const auto later = [&current](const Head& a, const Head& b) {
        return ReplayEventBefore(current[b.second].events[b.first],
                                 current[a.second].events[a.first]);
      };
      std::priority_queue<Head, std::vector<Head>, decltype(later)> heap(later);
      for (size_t s = 0; s < stream_count; ++s) {
        if (!current[s].events.empty()) {
          heap.push({0, s});
        }
      }
      uint64_t step_events = 0;
      while (!heap.empty()) {
        const auto [index, s] = heap.top();
        heap.pop();
        const ReplayEvent& event = current[s].events[index];
        ++stats_.events;
        ++step_events;
        for (ReplaySink* sink : sinks_) {
          sink->OnEvent(event);
        }
        if (index + 1 < current[s].events.size()) {
          heap.push({index + 1, s});
        }
      }
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
  if (source_->sampling_rate() > 0.0) {
    stats_.modeled_ios = static_cast<double>(stats_.events) / source_->sampling_rate();
  }
  for (ReplaySink* sink : sinks_) {
    sink->OnFinish();
  }
  return result;
}

}  // namespace ebs
