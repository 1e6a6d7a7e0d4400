// Dataset schemas mirroring the paper's DiTing collection (§2.3).
//
// Two datasets drive every analysis:
//  - trace data: per-IO records sampled at 1/3200, carrying op/size/offset,
//    the full stack path (user, VM, VD, QP, WT, CN, segment, BS, SN) and the
//    five-component latency breakdown;
//  - metric data: full-scale (unsampled) second-level throughput/IOPS
//    aggregates, per QP-WT pair on the compute side and per segment on the
//    storage side (Table 1).

#ifndef SRC_TRACE_RECORDS_H_
#define SRC_TRACE_RECORDS_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/topology/entities.h"
#include "src/topology/ids.h"
#include "src/topology/latency.h"
#include "src/util/time_series.h"

namespace ebs {

inline constexpr double kTraceSamplingRate = 1.0 / 3200.0;

// One sampled IO ("trace" in the paper's terminology).
struct TraceRecord {
  double timestamp = 0.0;  // seconds from window start; sub-second resolution
  OpType op = OpType::kRead;
  uint32_t size_bytes = 0;
  uint64_t offset = 0;  // LBA byte offset within the VD

  UserId user;
  VmId vm;
  VdId vd;
  QpId qp;
  WorkerThreadId wt;
  ComputeNodeId cn;
  SegmentId segment;
  BlockServerId bs;
  StorageNodeId sn;

  LatencyBreakdown latency;

  // Fault-injection outcome (zero / false on a healthy run; in-memory only —
  // never exported, so CSV fingerprints are schedule-independent when empty).
  uint8_t fault_retries = 0;   // failed attempts this IO paid for
  bool fault_timed_out = false;   // exhausted every attempt; latency is the budget
  bool fault_failed_over = false; // re-homed to a different BlockServer
};

// The canonical trace order: timestamp, then VD. A VD's records with equal
// timestamps keep their emission order, so datasets are sorted with a stable
// sort under this key. Every producer emits it (the batch generator, the
// replay engine's merged stream, store replay) and every batch consumer that
// needs the stream order (RunOverTraces, DriveSinksOverResult) requires it.
inline bool TraceRecordBefore(const TraceRecord& a, const TraceRecord& b) {
  if (a.timestamp != b.timestamp) {
    return a.timestamp < b.timestamp;
  }
  return a.vd.value() < b.vd.value();
}

struct TraceDataset {
  std::vector<TraceRecord> records;
  double window_seconds = 0.0;
  double sampling_rate = kTraceSamplingRate;

  uint64_t CountOps(OpType op) const;
  // Total bytes of the sampled records for one op (not scaled up).
  double SampledBytes(OpType op) const;
};

// Read/write traffic of one entity over the observation window.
struct RwSeries {
  TimeSeries read_bytes;   // bytes transferred per step
  TimeSeries write_bytes;
  TimeSeries read_ops;     // IOs completed per step
  TimeSeries write_ops;

  RwSeries() = default;
  RwSeries(size_t steps, double step_seconds);

  void Accumulate(const RwSeries& other);
  const TimeSeries& Bytes(OpType op) const;
  const TimeSeries& Ops(OpType op) const;
  TimeSeries& MutableBytes(OpType op);
  TimeSeries& MutableOps(OpType op);
  double TotalBytes() const;
};

// Sparse id-indexed collection of per-segment RwSeries. SegmentId is a dense
// small integer, so the lookup is a flat slot vector — no hashing on the
// per-record aggregation hot path — at ~4 bytes per fleet segment of index
// overhead. References returned by FindOrCreate/Insert stay valid for the
// container's lifetime (deque storage), which the workload generator relies
// on: streams capture series pointers while later VMs keep inserting.
//
// Iteration is offered in ascending-id order only (SortedItems/ForEachSorted):
// every consumer of this map feeds exported or fingerprinted products, and the
// insertion order differs between the batch generator and the streaming
// engine's shards, so an insertion-order walk would be a latent
// nondeterminism bug (the ebs_lint unordered-iter contract).
class SegmentSeriesMap {
 public:
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  void clear();

  // nullptr when the id was never inserted.
  const RwSeries* Find(uint32_t id) const;
  RwSeries* Find(uint32_t id);

  // Returns the series for `id`, constructing RwSeries(steps, step_seconds)
  // in place on first touch.
  RwSeries& FindOrCreate(uint32_t id, size_t steps, double step_seconds);

  // Moves a fully-built series in; `id` must not be present yet.
  RwSeries& Insert(uint32_t id, RwSeries series);

  // (id, series) pairs in ascending id order — the only iteration offered.
  std::vector<std::pair<uint32_t, const RwSeries*>> SortedItems() const;

  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    for (const auto& [id, series] : SortedItems()) {
      fn(id, *series);
    }
  }

 private:
  RwSeries& Register(uint32_t id, RwSeries&& series);

  static constexpr int32_t kAbsent = -1;
  std::vector<int32_t> slot_of_;  // indexed by segment id value; kAbsent = none
  std::vector<uint32_t> ids_;     // insertion order, parallel to series_
  std::deque<RwSeries> series_;   // deque: stable references across growth
};

// The metric dataset: per-QP series (compute domain) plus per-segment series
// (storage domain; sparse — only segments that ever saw traffic).
struct MetricDataset {
  double step_seconds = 1.0;
  size_t window_steps = 0;

  std::vector<RwSeries> qp_series;  // indexed by QpId::value()
  SegmentSeriesMap segment_series;  // keyed by SegmentId::value()

  const RwSeries* SegmentSeries(SegmentId id) const;
  RwSeries& MutableSegmentSeries(SegmentId id);
};

}  // namespace ebs

#endif  // SRC_TRACE_RECORDS_H_
