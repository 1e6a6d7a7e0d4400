// The generate-online replay source: the sharded synthesis path, apart from
// ReplayEngine so the merge loop can also be fed from disk (store_source.h).
//
// VMs are round-robin partitioned across worker threads (deterministically
// seeded per VM, so the merged output is independent of the partition), each
// shard generates blocks of kReplayBlockSteps seconds into its bounded queue,
// and the full-scale metric arrays are written in place as the blocks are
// generated.

#ifndef SRC_REPLAY_GENERATOR_SOURCE_H_
#define SRC_REPLAY_GENERATOR_SOURCE_H_

#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/fault/driver.h"
#include "src/replay/source.h"
#include "src/topology/fleet.h"
#include "src/util/thread_annotations.h"
#include "src/workload/generator.h"

namespace ebs {

class GeneratorShardSource : public ReplaySource {
 public:
  // Builds the fault driver when config.faults has events (validating the
  // schedule; throws std::invalid_argument on a malformed one). With an empty
  // schedule the fault layer is skipped wholesale. `worker_threads` is
  // clamped to [1, VM count].
  GeneratorShardSource(const Fleet& fleet, WorkloadConfig config, size_t worker_threads);

  size_t stream_count() const override { return stream_count_; }
  size_t window_steps() const override { return config_.window_steps; }
  double step_seconds() const override { return config_.step_seconds; }
  double sampling_rate() const override { return config_.sampling_rate; }

  void PrepareResult(WorkloadResult* result) override;
  void StartStreams(const std::vector<BoundedQueue<ShardBatch>*>& queues) override;
  void AwaitReady() override;
  void Join() override;
  std::exception_ptr TakeError() override;
  void Finalize(WorkloadResult* result) override;
  const FaultDriver* fault_driver() const override { return fault_driver_.get(); }

 private:
  const Fleet& fleet_;
  WorkloadConfig config_;
  std::unique_ptr<FaultDriver> fault_driver_;
  // Released by Finalize once their fault stats are accumulated: a finished
  // run keeps no per-stream generation state.
  std::vector<std::unique_ptr<ReplayShard>> shards_;
  size_t stream_count_ = 0;  // shards_.size() at construction

  // The result whose shared slots the shards fill; set by PrepareResult.
  WorkloadResult* result_ = nullptr;
  std::vector<RwSeries>* delivered_vd_ = nullptr;  // its storage-domain sources

  std::vector<std::promise<void>> init_done_;
  // Written by worker threads on failure, drained by the engine after Join.
  // The per-shard slots are disjoint, but the engine reads them all — the
  // mutex (not slot disjointness) is what the thread-safety analysis can
  // prove, and it keeps TakeError safe even mid-run.
  util::Mutex errors_mu_;
  std::vector<std::exception_ptr> worker_errors_ EBS_GUARDED_BY(errors_mu_);
  std::vector<std::thread> workers_;
};

}  // namespace ebs

#endif  // SRC_REPLAY_GENERATOR_SOURCE_H_
