// Event-stream producers for the replay engine.
//
// ReplayEngine's merge loop is agnostic to where its batches come from: a
// ReplaySource owns the producer side — one bounded queue per stream, one
// ShardBatch per block of consecutive window steps per stream, each step's
// events sorted by ReplayEventBefore. Two implementations exist:
//
//  - GeneratorShardSource (generator_source.h): VMs are partitioned across
//    worker threads that synthesize traffic online;
//  - StoreReplaySource (store_source.h): a single stream decoding an EBST
//    trace store (src/trace/store.h), so the same engine/sink pipeline
//    re-runs from disk.
//
// Engine call order: PrepareResult -> StartStreams -> AwaitReady -> (merge)
// -> Join -> TakeError -> Finalize. On abort the engine closes and drains the
// queues first, then calls Join/TakeError.

#ifndef SRC_REPLAY_SOURCE_H_
#define SRC_REPLAY_SOURCE_H_

#include <exception>
#include <vector>

#include "src/fault/driver.h"
#include "src/replay/bounded_queue.h"
#include "src/replay/shard.h"
#include "src/workload/generator.h"

namespace ebs {

class ReplaySource {
 public:
  virtual ~ReplaySource() = default;

  // Number of producer streams; the engine creates one queue per stream.
  // Fixed after construction.
  virtual size_t stream_count() const = 0;

  // Window geometry and thinning rate of the stream this source produces.
  virtual size_t window_steps() const = 0;
  virtual double step_seconds() const = 0;
  virtual double sampling_rate() const = 0;

  // Sizes `result`'s full-scale arrays and stamps the dataset metadata.
  // Called once, before StartStreams; the arrays must not be resized by
  // anyone afterwards (streams may hold pointers into them).
  virtual void PrepareResult(WorkloadResult* result) = 0;

  // Launches the producer threads. Stream i pushes batches covering its steps
  // in order into queues[i], closing it when done (or on abort, when a Push
  // fails because the engine closed the queue).
  virtual void StartStreams(const std::vector<BoundedQueue<ShardBatch>*>& queues) = 0;

  // Blocks until every stream finished initialization: the shared arrays of
  // PrepareResult hold final values and the result's segment entries are
  // complete. Rethrows a stream's initialization error.
  virtual void AwaitReady() = 0;

  // Joins every producer thread. The engine guarantees the queues are closed
  // (normal completion) or closed-and-drained (abort) first.
  virtual void Join() = 0;

  // First error a producer thread died with, if any; null otherwise.
  virtual std::exception_ptr TakeError() = 0;

  // Post-run bookkeeping into the result (fault accounting). Called only on
  // a successful run.
  virtual void Finalize(WorkloadResult* result) = 0;

  // The source's fault driver; nullptr when faults are not simulated (always
  // nullptr for store replay: fault outcomes are baked into the records).
  virtual const FaultDriver* fault_driver() const { return nullptr; }
};

}  // namespace ebs

#endif  // SRC_REPLAY_SOURCE_H_
