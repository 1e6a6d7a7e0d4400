#include "src/replay/generator_source.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"

namespace ebs {

GeneratorShardSource::GeneratorShardSource(const Fleet& fleet, WorkloadConfig config,
                                           size_t worker_threads)
    : fleet_(fleet), config_(std::move(config)) {
  if (!config_.faults.empty()) {
    fault_driver_ = std::make_unique<FaultDriver>(fleet_, config_.faults,
                                                  config_.window_steps, config_.step_seconds);
  }
  const size_t shard_count = std::max<size_t>(
      1, std::min(worker_threads, std::max<size_t>(1, fleet_.vms.size())));
  stream_count_ = shard_count;

  // Round-robin VM assignment: a deterministic partition that spreads the
  // heavy-tailed tenants across shards. Any partition yields the same output.
  std::vector<std::vector<uint32_t>> assignment(shard_count);
  for (const Vm& vm : fleet_.vms) {
    assignment[vm.id.value() % shard_count].push_back(vm.id.value());
  }
  shards_.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<ReplayShard>(fleet_, config_, static_cast<uint32_t>(s),
                                                    std::move(assignment[s]),
                                                    fault_driver_.get()));
  }
  init_done_.resize(shard_count);
  worker_errors_.resize(shard_count);
}

void GeneratorShardSource::PrepareResult(WorkloadResult* result) {
  const size_t steps = config_.window_steps;
  const double dt = config_.step_seconds;
  result->metrics.step_seconds = dt;
  result->metrics.window_steps = steps;
  result->metrics.qp_series.assign(fleet_.qps.size(), RwSeries(steps, dt));
  result->offered_vd.assign(fleet_.vds.size(), RwSeries(steps, dt));
  result->vd_truth.assign(fleet_.vds.size(), VdGroundTruth{});
  result->traces.window_seconds = static_cast<double>(steps) * dt;
  result->traces.sampling_rate = config_.sampling_rate;
  result_ = result;
  delivered_vd_ = &result->metrics.segment_series.ResetSources(fleet_.vds.size(), steps, dt);
}

void GeneratorShardSource::StartStreams(
    const std::vector<BoundedQueue<ShardBatch>*>& queues) {
  // Self-observability: per-shard generation/init timers and producer-side
  // queue wait. Pure wall-clock observation — it cannot perturb the generated
  // stream — and compiles down to a disabled-flag branch when no report is
  // requested.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const size_t steps = config_.window_steps;
  workers_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "replay.shard" + std::to_string(s);
    obs::ObsHistogram* init_timer = registry.GetTimer(prefix + ".init");
    obs::ObsHistogram* generate_timer = registry.GetTimer(prefix + ".generate_block");
    obs::ObsHistogram* push_wait = registry.GetTimer("replay.queue.push_wait");
    obs::Counter* dropped = registry.GetCounter("replay.batches_dropped");
    BoundedQueue<ShardBatch>* queue = queues[s];
    workers_.emplace_back([this, s, steps, queue, init_timer, generate_timer, push_wait,
                           dropped] {
      try {
        obs::ScopedTimer timer(init_timer);
        shards_[s]->Init(result_, delivered_vd_);
      } catch (...) {
        init_done_[s].set_exception(std::current_exception());
        queue->Close();
        return;
      }
      init_done_[s].set_value();
      try {
        for (size_t first = 0; first < steps;) {
          ShardBatch batch;
          {
            obs::ScopedTimer timer(generate_timer);
            batch = shards_[s]->GenerateBlock(first);
          }
          first += batch.steps.size();
          // Push blocks while the queue is at capacity (backpressure) and
          // fails once the merge side closed the queue (abort).
          obs::ScopedTimer wait_timer(push_wait);
          if (!queue->Push(std::move(batch))) {
            dropped->Increment();
            return;
          }
        }
      } catch (...) {
        util::MutexLock lock(&errors_mu_);
        worker_errors_[s] = std::current_exception();
      }
      queue->Close();
    });
  }
}

void GeneratorShardSource::AwaitReady() {
  // After this, the shared qp/offered/truth slots of every shard are built
  // and every shard's segment entries are recorded.
  for (auto& done : init_done_) {
    done.get_future().get();
  }
  // One sort of all shards' entries into ascending segment id (each segment
  // belongs to exactly one VD, hence one shard). The workers only write the
  // delivered series' cells from here on, never the map's entry list.
  std::vector<SegmentEntry> entries;
  for (const auto& shard : shards_) {
    entries.insert(entries.end(), shard->segment_entries().begin(),
                   shard->segment_entries().end());
  }
  result_->metrics.segment_series.AssignEntries(std::move(entries));
}

void GeneratorShardSource::Join() {
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

std::exception_ptr GeneratorShardSource::TakeError() {
  util::MutexLock lock(&errors_mu_);
  for (std::exception_ptr& error : worker_errors_) {
    if (error) {
      return std::exchange(error, nullptr);
    }
  }
  return nullptr;
}

void GeneratorShardSource::Finalize(WorkloadResult* result) {
  for (auto& shard : shards_) {
    result->faults.Accumulate(shard->fault_stats());
  }
  if (fault_driver_ != nullptr) {
    // Whole-window property of the schedule — taken from the driver once, not
    // summed across shards.
    result->faults.degraded_steps = fault_driver_->DegradedStepCount();
  }
  shards_.clear();
}

}  // namespace ebs
