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

#include <cstddef>
#include <cstdint>
#include <optional>
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

// The canonical trace order: timestamp, then VD, a VD's records with equal
// timestamps in emission order. Every producer emits it (the replay engine's
// merged stream, store replay) and the batch consumer that needs the stream
// order (RunOverTraces) requires it.
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

  // Channel-wise addition. Throws std::invalid_argument, adding nothing,
  // unless every channel of `other` has the length of this one's.
  void Accumulate(const RwSeries& other);
  const TimeSeries& Bytes(OpType op) const;
  const TimeSeries& Ops(OpType op) const;
  TimeSeries& MutableBytes(OpType op);
  TimeSeries& MutableOps(OpType op);
  double TotalBytes() const;
};

// One active segment of a SegmentSeriesMap. Its read channels (bytes and
// ops) are the source series' read channels times `read_weight`, its write
// channels likewise with `write_weight`. A weight of 0.0 marks an op the
// segment never carries: that op's channels are zero.
struct SegmentEntry {
  uint32_t id = 0;      // SegmentId::value()
  uint32_t source = 0;  // index into the map's source series
  double read_weight = 0.0;
  double write_weight = 0.0;
};

// Read access to one segment's four channels. Cell t of a channel is
// `source cell * weight`, or 0.0 under a zero weight. Cheap to copy; valid
// while the map it came from is alive and unchanged.
struct SegmentView {
  uint32_t id = 0;
  const RwSeries* source = nullptr;
  double read_weight = 0.0;
  double write_weight = 0.0;

  size_t steps() const { return source->read_bytes.size(); }
  double Bytes(OpType op, size_t t) const {
    return op == OpType::kRead ? Cell(source->read_bytes, read_weight, t)
                               : Cell(source->write_bytes, write_weight, t);
  }

  // The segment's series, cell by cell as above. MaterializeInto reuses
  // *out's buffers.
  RwSeries Materialize() const;
  void MaterializeInto(RwSeries* out) const;

  static double Cell(const TimeSeries& column, double weight, size_t t) {
    return weight == 0.0 ? 0.0 : column[t] * weight;
  }
};

// The storage domain: the active segments, each a SegmentEntry over one of
// the map's source series, in ascending id order. Two kinds of entry share
// this one representation:
//  - derived (generated runs): every segment of a VD reads that VD's
//    delivered series, scaled per op by the spatial model's weight. The
//    generator stores one delivered series per VD instead of one series per
//    segment;
//  - explicit (trace aggregation, hand-built data): the entry owns its
//    source and both weights are 1.0, which is exact (x * 1.0 == x).
// The EBST store writes the sources and the entries as they are, and its
// decoder rebuilds them with ResetSources and AssignEntries.
// Entries name their source by index, so a copied or moved map stays valid.
// Lookups binary-search the sorted entries: no allocation depends on the
// value of an id.
//
// Iteration is offered in ascending-id order only (operator[] over
// [0, size()), ForEachSorted): every consumer feeds exported or
// fingerprinted products, and the order must not depend on how the map was
// built (the ebs_lint unordered-iter contract).
class SegmentSeriesMap {
 public:
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear();

  // The i-th active segment in ascending id order; i < size().
  SegmentView operator[](size_t i) const { return View(entries_[i]); }

  // std::nullopt when the id was never inserted.
  std::optional<SegmentView> Find(uint32_t id) const;

  // Stores `series` as the explicit series of `id`, replacing any earlier
  // entry for the id.
  void Insert(uint32_t id, RwSeries series);

  // The explicit, writable series of `id`: created as RwSeries(steps,
  // step_seconds) on first touch, materialized first if the entry is derived.
  // Valid until the next insertion.
  RwSeries& FindOrCreate(uint32_t id, size_t steps, double step_seconds);

  // Generated runs, step 1: clears the map and returns `count` zeroed source
  // series (one per VD), which the VD streams fill in place. The vector must
  // not be resized.
  std::vector<RwSeries>& ResetSources(size_t count, size_t steps, double step_seconds);
  // Step 2: the derived entries, in any order; sorted here. Throws
  // std::invalid_argument on a repeated id or an out-of-range source.
  void AssignEntries(std::vector<SegmentEntry> entries);

  // The map as it is held: the source series, and the entries in ascending
  // id order.
  const std::vector<RwSeries>& sources() const { return sources_; }
  const std::vector<SegmentEntry>& entries() const { return entries_; }

  // fn(id, series) for every segment in ascending id order, each series
  // materialized into one reused scratch RwSeries.
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    RwSeries scratch;
    for (const SegmentEntry& entry : entries_) {
      View(entry).MaterializeInto(&scratch);
      fn(entry.id, std::as_const(scratch));
    }
  }

 private:
  SegmentView View(const SegmentEntry& entry) const {
    return {entry.id, &sources_[entry.source], entry.read_weight, entry.write_weight};
  }
  // Index of the first entry whose id is not below `id`.
  size_t LowerBound(uint32_t id) const;
  // Makes `series` the own source of `id`'s entry, which is entries_[at] or,
  // when absent, is inserted there.
  void OwnSource(size_t at, uint32_t id, RwSeries series);

  std::vector<RwSeries> sources_;
  std::vector<SegmentEntry> entries_;  // ascending id
  // sources_[0, shared_sources_) are per-VD series read by derived entries;
  // each later source belongs to one explicit entry.
  size_t shared_sources_ = 0;
};

// The metric dataset: per-QP series (compute domain) plus per-segment series
// (storage domain; sparse — only the segments of VDs that generated traffic).
struct MetricDataset {
  double step_seconds = 1.0;
  size_t window_steps = 0;

  std::vector<RwSeries> qp_series;  // indexed by QpId::value()
  SegmentSeriesMap segment_series;  // keyed by SegmentId::value()

  std::optional<SegmentView> SegmentSeries(SegmentId id) const;
  // SegmentSeriesMap::FindOrCreate with the dataset's window geometry.
  RwSeries& MutableSegmentSeries(SegmentId id);
};

}  // namespace ebs

#endif  // SRC_TRACE_RECORDS_H_
