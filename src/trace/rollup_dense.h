// Struct-of-arrays rollup storage for fleet-scale aggregation.
//
// A rollup to N entities over S steps used to be a vector<RwSeries> — 4*N
// separately heap-allocated step arrays. At million-VD scale that is tens of
// millions of allocations per rollup level and a pointer chase per accumulate.
// RwMatrix keeps the same logical layout (entity-major rows of each channel)
// in exactly four contiguous buffers, so building a rollup level costs four
// allocations regardless of fleet size and row accumulation is a linear
// sweep.
//
// Bit-compatibility contract: RollupMatrix* visit sources in the same order
// as the vector<RwSeries> Rollup* functions in aggregate.h (QPs in fleet
// order, segments in ascending id order), and each accumulator element sees
// the same addition sequence — so Row(e) of the matrix is bit-identical to
// rollup[e] of the legacy path. A segment's cells are multiplied out of its
// source series as they are added (SegmentView::Cell), never stored.
// ToSeriesVector() is the bridge for consumers that still want per-entity
// RwSeries. RollupCache is the one holder of a finished run's rollups that
// both facades and the replay rollup sink use.

#ifndef SRC_TRACE_ROLLUP_DENSE_H_
#define SRC_TRACE_ROLLUP_DENSE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"
#include "src/util/thread_annotations.h"

namespace ebs {

// Four SoA channels of an entities x steps rollup.
class RwMatrix {
 public:
  RwMatrix() = default;
  RwMatrix(size_t entities, size_t steps, double step_seconds);

  size_t entities() const { return entities_; }
  size_t steps() const { return steps_; }
  double step_seconds() const { return step_seconds_; }

  std::span<double> ReadBytes(size_t e) { return Row(read_bytes_, e); }
  std::span<double> WriteBytes(size_t e) { return Row(write_bytes_, e); }
  std::span<double> ReadOps(size_t e) { return Row(read_ops_, e); }
  std::span<double> WriteOps(size_t e) { return Row(write_ops_, e); }
  std::span<const double> ReadBytes(size_t e) const { return Row(read_bytes_, e); }
  std::span<const double> WriteBytes(size_t e) const { return Row(write_bytes_, e); }
  std::span<const double> ReadOps(size_t e) const { return Row(read_ops_, e); }
  std::span<const double> WriteOps(size_t e) const { return Row(write_ops_, e); }

  // rollup[e] += src, channel by channel (the RwSeries::Accumulate order).
  void AccumulateRow(size_t e, const RwSeries& src);
  // The same for a segment: rollup[e][t] += src.source[t] * weight per
  // channel. A zero-weight channel is skipped, which equals adding its 0.0
  // cells: an accumulator starts at +0.0 and so never holds -0.0.
  void AccumulateRow(size_t e, const SegmentView& src);

  // Materializes row `e` as a standalone RwSeries (bit-identical copies).
  RwSeries ExtractSeries(size_t e) const;

  // Bridge to the legacy per-entity representation.
  std::vector<RwSeries> ToSeriesVector() const;

 private:
  std::span<double> Row(std::vector<double>& channel, size_t e) {
    return {channel.data() + e * steps_, steps_};
  }
  std::span<const double> Row(const std::vector<double>& channel, size_t e) const {
    return {channel.data() + e * steps_, steps_};
  }

  size_t entities_ = 0;
  size_t steps_ = 0;
  double step_seconds_ = 1.0;
  std::vector<double> read_bytes_;
  std::vector<double> write_bytes_;
  std::vector<double> read_ops_;
  std::vector<double> write_ops_;
};

// What a rollup folds: the per-QP series (compute domain, indexed by
// QpId::value()) and the active segments (storage domain). A MetricDataset
// converts implicitly; the replay rollup sink builds one from the step view.
struct RollupSources {
  RollupSources(const MetricDataset& metrics);
  RollupSources(size_t window_steps, double dt, const std::vector<RwSeries>& qps,
                const SegmentSeriesMap& segments);

  size_t steps;
  double step_seconds;
  const std::vector<RwSeries>* qp_series;
  const SegmentSeriesMap* segment_series;
};

// Matrix-native rollups; RollupTo*(fleet, metrics) in aggregate.h are thin
// ToSeriesVector() wrappers over these.
RwMatrix RollupMatrixToVd(const Fleet& fleet, const RollupSources& sources);
RwMatrix RollupMatrixToVm(const Fleet& fleet, const RollupSources& sources);
RwMatrix RollupMatrixToUser(const Fleet& fleet, const RollupSources& sources);
RwMatrix RollupMatrixToWt(const Fleet& fleet, const RollupSources& sources);
RwMatrix RollupMatrixToComputeNode(const Fleet& fleet, const RollupSources& sources);
RwMatrix RollupMatrixToBlockServer(const Fleet& fleet, const RollupSources& sources);
RwMatrix RollupMatrixToStorageNode(const Fleet& fleet, const RollupSources& sources);

// The entity-level rollups of one finished run, each level folded once on
// first access and cached. Thread-safe: each level fills under its own
// annotated mutex, so concurrent first readers serialize on the fill and later
// readers pay one uncontended lock. A filled level is never reset, so the
// returned reference outlives the lock; a fill that throws leaves the level
// empty for the next reader to retry.
class RollupCache {
 public:
  // `fleet` and everything `sources` points at must stay alive and unchanged
  // until every level has been read once (FillAll() ends that dependency).
  RollupCache(const Fleet& fleet, RollupSources sources)
      : fleet_(fleet), sources_(std::move(sources)) {}

  const std::vector<RwSeries>& vd() const { return Get(kVd); }
  const std::vector<RwSeries>& vm() const { return Get(kVm); }
  const std::vector<RwSeries>& user() const { return Get(kUser); }
  const std::vector<RwSeries>& wt() const { return Get(kWt); }
  const std::vector<RwSeries>& cn() const { return Get(kCn); }
  const std::vector<RwSeries>& bs() const { return Get(kBs); }
  const std::vector<RwSeries>& sn() const { return Get(kSn); }
  // Active-segment series, ascending segment id, each materialized from its
  // source series on first access.
  const std::vector<RwSeries>& seg() const { return Get(kSeg); }

  void FillAll() const;

 private:
  enum Level { kVd, kVm, kUser, kWt, kCn, kBs, kSn, kSeg, kLevelCount };
  struct Slot {
    util::Mutex mu;
    std::optional<std::vector<RwSeries>> value EBS_GUARDED_BY(mu);
  };

  const std::vector<RwSeries>& Get(Level level) const;

  const Fleet& fleet_;
  RollupSources sources_;
  mutable std::array<Slot, kLevelCount> slots_;
};

}  // namespace ebs

#endif  // SRC_TRACE_ROLLUP_DENSE_H_
