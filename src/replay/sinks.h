// Stock sinks for the replay engine.
//
//  - TraceCollectorSink materializes the per-IO trace dataset (the piece
//    ReplayEngine::Run deliberately does not build) for offline analyses.
//  - RollupAggregatorSink folds every entity-level rollup once, at the last
//    step boundary, through the shared RollupCache (the RollupTo* folds of
//    src/trace/aggregate.h). The facades own their own cache instead.
//  - ThroughputProbeSink counts the stream — cheap observer for benchmarks
//    and smoke checks.
//  - StoreWriterSink streams the merged events into an EBST trace store
//    (src/trace/store.h) with bounded memory.

#ifndef SRC_REPLAY_SINKS_H_
#define SRC_REPLAY_SINKS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/replay/sink.h"
#include "src/trace/records.h"
#include "src/trace/store.h"
#include "src/trace/rollup_dense.h"

namespace ebs {

class TraceCollectorSink : public ReplaySink {
 public:
  explicit TraceCollectorSink(double sampling_rate = kTraceSamplingRate)
      : sampling_rate_(sampling_rate) {}

  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnEvent(const ReplayEvent& event) override;

  // Records arrive in the merged stream order: (timestamp, vd, sequence).
  const TraceDataset& dataset() const { return dataset_; }
  TraceDataset TakeDataset() { return std::move(dataset_); }

 private:
  double sampling_rate_;
  TraceDataset dataset_;
  obs::Counter* collected_ =
      obs::MetricRegistry::Global().GetCounter("sink.trace_collector.records");
};

// The rollup type RollupAggregatorSink hands out. Callers written against
// the former per-step aggregator (the perf ledger's traced run among them)
// still name it, so it stays as an alias of the one shared implementation.
using StreamingAggregator = RollupCache;

class RollupAggregatorSink : public ReplaySink {
 public:
  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnStepComplete(const ReplayStepView& view) override;

  // Valid once the final step completed (every level is filled by then).
  const StreamingAggregator& aggregator() const { return *aggregator_; }

 private:
  const Fleet* fleet_ = nullptr;
  size_t window_steps_ = 0;
  std::optional<StreamingAggregator> aggregator_;
};

// Streams every merged event into an EBST trace store, chunk by chunk —
// memory stays bounded by one chunk, unlike collecting the dataset and batch-
// writing it. The writer is created at OnStart (the window geometry arrives
// there) and carries the CSV exporters' checked-write contract: call
// Finish(result) with the run's WorkloadResult after ReplayEngine::Run
// returns to embed the metrics section and close the file — only a true
// return means the complete store reached the OS. Finish() without a result
// writes a trace-only store (readable, but not replayable).
class StoreWriterSink : public ReplaySink {
 public:
  StoreWriterSink(std::string path, double sampling_rate = kTraceSamplingRate,
                  TraceStoreOptions options = {})
      : path_(std::move(path)), sampling_rate_(sampling_rate), options_(options) {}

  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnEvent(const ReplayEvent& event) override;

  bool ok() const { return writer_ != nullptr && writer_->ok(); }
  bool Finish();
  bool Finish(const WorkloadResult& result);

 private:
  std::string path_;
  double sampling_rate_;
  TraceStoreOptions options_;
  std::unique_ptr<TraceStoreWriter> writer_;
  obs::ObsHistogram* append_timer_ =
      obs::MetricRegistry::Global().GetTimer("sink.store_writer.append");
};

class ThroughputProbeSink : public ReplaySink {
 public:
  void OnEvent(const ReplayEvent& event) override;

  uint64_t events() const { return events_; }
  uint64_t read_ops() const { return read_ops_; }
  uint64_t write_ops() const { return write_ops_; }
  double sampled_bytes() const { return sampled_bytes_; }

 private:
  uint64_t events_ = 0;
  uint64_t read_ops_ = 0;
  uint64_t write_ops_ = 0;
  double sampled_bytes_ = 0.0;
};

}  // namespace ebs

#endif  // SRC_REPLAY_SINKS_H_
