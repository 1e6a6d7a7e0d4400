#include "src/replay/sinks.h"

#include "src/obs/metrics.h"

namespace ebs {

void TraceCollectorSink::OnStart(const Fleet& /*fleet*/, size_t window_steps,
                                 double step_seconds) {
  dataset_ = TraceDataset{};
  dataset_.window_seconds = static_cast<double>(window_steps) * step_seconds;
  dataset_.sampling_rate = sampling_rate_;
}

void TraceCollectorSink::OnEvent(const ReplayEvent& event) {
  dataset_.records.push_back(event.record);
  collected_->Increment();
}

void RollupAggregatorSink::OnStart(const Fleet& fleet, size_t window_steps,
                                   double /*step_seconds*/) {
  fleet_ = &fleet;
  window_steps_ = window_steps;
  aggregator_.reset();
}

void RollupAggregatorSink::OnStepComplete(const ReplayStepView& view) {
  if (view.step + 1 < window_steps_) {
    return;  // later columns may still be written by the shards
  }
  aggregator_.emplace(*fleet_, RollupSources(window_steps_, view.step_seconds, view.qp_series,
                                             view.segments));
  // Fold now: the view's references die when the engine's Run() returns.
  aggregator_->FillAll();
}

void StoreWriterSink::OnStart(const Fleet& /*fleet*/, size_t window_steps,
                              double step_seconds) {
  TraceStoreMeta meta;
  meta.sampling_rate = sampling_rate_;
  meta.window_seconds = static_cast<double>(window_steps) * step_seconds;
  meta.step_seconds = step_seconds;
  meta.window_steps = static_cast<uint32_t>(window_steps);
  writer_ = std::make_unique<TraceStoreWriter>(path_, meta, options_);
}

void StoreWriterSink::OnEvent(const ReplayEvent& event) {
  if (writer_ == nullptr || !writer_->ok()) {
    return;  // sticky failure; Finish reports it
  }
  obs::ScopedTimer timer(append_timer_);
  writer_->Append(event.record, event.step);
}

bool StoreWriterSink::Finish() {
  return writer_ != nullptr && writer_->Finish();
}

bool StoreWriterSink::Finish(const WorkloadResult& result) {
  return writer_ != nullptr && writer_->Finish(result);
}

void ThroughputProbeSink::OnEvent(const ReplayEvent& event) {
  ++events_;
  if (event.record.op == OpType::kRead) {
    ++read_ops_;
  } else {
    ++write_ops_;
  }
  sampled_bytes_ += static_cast<double>(event.record.size_bytes);
}

}  // namespace ebs
