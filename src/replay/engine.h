// Streaming discrete-event replay engine.
//
// ReplayEngine merges per-stream event batches from a ReplaySource into one
// time-ordered IO stream that drives a chain of ReplaySinks. The default
// source (GeneratorShardSource) turns the fleet synthesizer into an online
// system: VMs are partitioned across worker threads (deterministically seeded
// per VM, so the output is independent of the partition), each shard
// generates blocks of kReplayBlockSteps seconds into a bounded queue, and the
// engine k-way heap-merges the shard streams one second at a time. A
// StoreReplaySource feeds the same merge from an EBST trace store on disk
// instead. Memory stays bounded by streams x queue-capacity blocks of events
// instead of the whole trace dataset; full-scale per-second metrics are still
// assembled (they are a fixed-size product, not per-IO).
//
// Determinism: for a fixed (fleet, config.seed), the merged event stream, the
// metric dataset, and every per-second view handed to sinks are identical for
// any worker-thread count — the generator goldens in tests/workload_test.cc
// pin them — and replaying a store written from that stream reproduces it
// fingerprint-identically.

#ifndef SRC_REPLAY_ENGINE_H_
#define SRC_REPLAY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fault/driver.h"
#include "src/replay/sink.h"
#include "src/replay/source.h"
#include "src/topology/fleet.h"
#include "src/workload/generator.h"

namespace ebs {

// The fewest blocks a stream's queue holds, so the merge never waits on a
// block that is still being generated.
inline constexpr size_t kMinQueueBlocks = 2;

struct ReplayOptions {
  // Generation worker threads; clamped to the VM count. Ignored by sources
  // with a fixed stream count (store replay is a single stream).
  size_t worker_threads = 1;
  // Per-stream queue bound, in ShardBatch blocks, at least kMinQueueBlocks.
  // Production stalls when the merge falls this far behind (backpressure
  // instead of unbounded RAM).
  size_t queue_capacity = kMinQueueBlocks;
};

struct ReplayStats {
  size_t shards = 0;         // producer streams
  uint64_t events = 0;       // sampled IOs streamed through the sink chain
  double modeled_ios = 0.0;  // events scaled by 1/sampling_rate
};

class ReplayEngine {
 public:
  // The generate-online engine. Builds the fault driver when config.faults
  // has events (validating the schedule; throws std::invalid_argument on a
  // malformed one). With an empty schedule the fault layer is skipped
  // wholesale: the merged stream and datasets are bit-identical to a build
  // without the fault subsystem.
  ReplayEngine(const Fleet& fleet, WorkloadConfig config, ReplayOptions options = {});

  // Replays an arbitrary source (e.g. StoreReplaySource) through the same
  // merge loop and sink chain.
  ReplayEngine(const Fleet& fleet, std::unique_ptr<ReplaySource> source,
               ReplayOptions options = {});

  // Registers an observer; not owned. Sinks run on the merge thread in
  // registration order.
  void AddSink(ReplaySink* sink);

  // Runs the whole observation window once. Returns the assembled full-scale
  // datasets (metrics, offered load, ground truth). The per-IO trace dataset
  // is NOT materialized — that is the point of streaming; attach a
  // TraceCollectorSink to keep the events.
  WorkloadResult Run();

  const ReplayStats& stats() const { return stats_; }

  // The source's fault driver; nullptr on a healthy run and on store replay.
  // Sinks that degrade under faults (online cache/lending/balance) take this
  // pointer.
  const FaultDriver* fault_driver() const { return source_->fault_driver(); }

 private:
  const Fleet& fleet_;
  ReplayOptions options_;
  std::unique_ptr<ReplaySource> source_;
  std::vector<ReplaySink*> sinks_;
  ReplayStats stats_;
};

}  // namespace ebs

#endif  // SRC_REPLAY_ENGINE_H_
