// Replay-from-disk: feeds the replay engine from an EBST trace store
// (src/trace/store.h) instead of regenerating the workload.
//
// The store must carry a metrics section (written via WriteWorkloadToStore or
// StoreWriterSink::Finish(result)): sampled traces cannot rebuild the
// full-scale per-second series, so per-step sink views (lending, WT-CoV,
// rollups) are loaded from the file and are bit-identical to the generating
// run's. A single producer stream decodes chunks and emits one ShardBatch per
// block of kReplayBlockSteps window steps — file order IS the merged order,
// because stores are written from the merged stream — so every sink observes
// the exact event sequence of the original run, at any worker count, without
// paying for generation.
//
// Fault replay caveat: recorded fault outcomes (retries, timeouts, failovers
// and their latency costs) are baked into the records and replay exactly, but
// fault_driver() is nullptr — sinks that gate on live driver state see a
// healthy run. Store replay of a faulted run reproduces the stream, not the
// driver.

#ifndef SRC_REPLAY_STORE_SOURCE_H_
#define SRC_REPLAY_STORE_SOURCE_H_

#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "src/replay/source.h"
#include "src/topology/fleet.h"
#include "src/trace/store.h"
#include "src/util/thread_annotations.h"

namespace ebs {

class StoreReplaySource : public ReplaySource {
 public:
  // Opens and validates the store (throws TraceStoreError: any corruption,
  // or kNoMetrics when the file has no metrics section). `fleet` must be the
  // fleet the store was recorded against — entity counts are checked in
  // PrepareResult and every record's ids are bounds-checked while streaming
  // (kMismatch), so a stale file cannot drive sinks out of range.
  StoreReplaySource(const Fleet& fleet, const std::string& path);

  size_t stream_count() const override { return 1; }
  size_t window_steps() const override { return reader_.info().meta.window_steps; }
  double step_seconds() const override { return reader_.info().meta.step_seconds; }
  double sampling_rate() const override { return reader_.info().meta.sampling_rate; }

  void PrepareResult(WorkloadResult* result) override;
  void StartStreams(const std::vector<BoundedQueue<ShardBatch>*>& queues) override;
  void AwaitReady() override {}
  void Join() override;
  std::exception_ptr TakeError() override;
  void Finalize(WorkloadResult* /*result*/) override {}

  const TraceStoreInfo& store_info() const { return reader_.info(); }

 private:
  void StreamChunks(BoundedQueue<ShardBatch>* queue);
  void ValidateRecord(const TraceRecord& record) const;

  const Fleet& fleet_;
  TraceStoreReader reader_;
  std::thread producer_;
  // Set by the producer thread on failure, drained by the engine. Guarded so
  // the discipline is provable; Join() alone would also order the accesses.
  util::Mutex error_mu_;
  std::exception_ptr error_ EBS_GUARDED_BY(error_mu_);
};

}  // namespace ebs

#endif  // SRC_REPLAY_STORE_SOURCE_H_
