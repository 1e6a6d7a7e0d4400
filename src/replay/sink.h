// Observer interface of the streaming replay engine.
//
// The engine merges per-shard generation into one time-ordered IO stream and
// pushes it through a chain of sinks. A sink sees two granularities, matching
// the paper's two datasets: per-IO events (the sampled trace stream) via
// OnEvent, and full-scale per-second metrics via OnStepComplete. Online
// mitigation policies — WT balancing, throttling with limited lending,
// hotspot/cache placement — are sinks; chaining them runs every policy in a
// single pass over the stream.

#ifndef SRC_REPLAY_SINK_H_
#define SRC_REPLAY_SINK_H_

#include <cstdint>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

// One sampled IO in the merged stream.
struct ReplayEvent {
  TraceRecord record;
  uint32_t step = 0;      // second the IO belongs to
  uint32_t shard = 0;     // generating shard (diagnostic only)
  uint64_t sequence = 0;  // per-VD emission index
};

// The merged stream's total order: TraceRecordBefore's (timestamp, vd), then
// the per-VD sequence. The tie-breaks make the order independent of how VMs
// are assigned to shards, which is why the stream is identical for any
// worker-thread count. This is the merge heap's hot comparator, so it spells
// out all three fields in one pass instead of calling TraceRecordBefore.
inline bool ReplayEventBefore(const ReplayEvent& a, const ReplayEvent& b) {
  if (a.record.timestamp != b.record.timestamp) {
    return a.record.timestamp < b.record.timestamp;
  }
  if (a.record.vd.value() != b.record.vd.value()) {
    return a.record.vd.value() < b.record.vd.value();
  }
  return a.sequence < b.sequence;
}

// Read-only view handed to sinks at each step boundary. Columns <= step hold
// final values; later columns may still be written by worker threads and must
// not be read. A sink may read any column <= step, not only column step: the
// control-plane sinks (lending, WT-CoV, control) read back to the start of
// their period at its last step. The vectors the view refers to stay alive,
// with their final columns unchanged, until OnFinish returns, so a sink may
// keep a pointer to them for work it defers to a later step or to OnFinish.
// Every driver guarantees this: the replay engine, SimulateLending and
// WtCovSamples.
struct ReplayStepView {
  size_t step = 0;
  double step_seconds = 1.0;
  const std::vector<RwSeries>& qp_series;   // compute domain, full scale
  const std::vector<RwSeries>& offered_vd;  // pre-throttle per-VD demand
  // Active storage-domain series, ascending segment id; its entry list is
  // complete, its cells final up to `step` like the columns above.
  const SegmentSeriesMap& segments;
};

class ReplaySink {
 public:
  virtual ~ReplaySink() = default;

  // Called once, after every shard finished initialization and before the
  // first event.
  virtual void OnStart(const Fleet& /*fleet*/, size_t /*window_steps*/,
                       double /*step_seconds*/) {}

  // Called for every IO event, in the merged stream's total order.
  virtual void OnEvent(const ReplayEvent& /*event*/) {}

  // Called after the last event of second `view.step`.
  virtual void OnStepComplete(const ReplayStepView& /*view*/) {}

  // Called once, after the final step completed. A sink may defer work to
  // here: OnlineCacheSink records IOs during the run and replays them in
  // OnFinish, so its results are final only once OnFinish returns. A run that
  // aborts never calls OnFinish, so such a sink's results stay as OnStart
  // reset them (zero).
  virtual void OnFinish() {}
};

}  // namespace ebs

#endif  // SRC_REPLAY_SINK_H_
