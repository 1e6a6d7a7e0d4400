#include "src/trace/rollup_dense.h"

#include <utility>

namespace ebs {

RwMatrix::RwMatrix(size_t entities, size_t steps, double step_seconds)
    : entities_(entities),
      steps_(steps),
      step_seconds_(step_seconds),
      read_bytes_(entities * steps, 0.0),
      write_bytes_(entities * steps, 0.0),
      read_ops_(entities * steps, 0.0),
      write_ops_(entities * steps, 0.0) {}

namespace {

void AddInto(std::span<double> dst, const TimeSeries& src) {
  for (size_t t = 0; t < dst.size(); ++t) {
    dst[t] += src[t];
  }
}

void AddWeightedInto(std::span<double> dst, const TimeSeries& src, double weight) {
  if (weight == 0.0) {
    return;
  }
  for (size_t t = 0; t < dst.size(); ++t) {
    dst[t] += src[t] * weight;
  }
}

}  // namespace

void RwMatrix::AccumulateRow(size_t e, const RwSeries& src) {
  AddInto(ReadBytes(e), src.read_bytes);
  AddInto(WriteBytes(e), src.write_bytes);
  AddInto(ReadOps(e), src.read_ops);
  AddInto(WriteOps(e), src.write_ops);
}

void RwMatrix::AccumulateRow(size_t e, const SegmentView& src) {
  AddWeightedInto(ReadBytes(e), src.source->read_bytes, src.read_weight);
  AddWeightedInto(WriteBytes(e), src.source->write_bytes, src.write_weight);
  AddWeightedInto(ReadOps(e), src.source->read_ops, src.read_weight);
  AddWeightedInto(WriteOps(e), src.source->write_ops, src.write_weight);
}

RwSeries RwMatrix::ExtractSeries(size_t e) const {
  RwSeries series(steps_, step_seconds_);
  const auto copy = [&](TimeSeries& dst, std::span<const double> src) {
    for (size_t t = 0; t < steps_; ++t) {
      dst[t] = src[t];
    }
  };
  copy(series.read_bytes, ReadBytes(e));
  copy(series.write_bytes, WriteBytes(e));
  copy(series.read_ops, ReadOps(e));
  copy(series.write_ops, WriteOps(e));
  return series;
}

std::vector<RwSeries> RwMatrix::ToSeriesVector() const {
  std::vector<RwSeries> out;
  out.reserve(entities_);
  for (size_t e = 0; e < entities_; ++e) {
    out.push_back(ExtractSeries(e));
  }
  return out;
}

RollupSources::RollupSources(const MetricDataset& metrics)
    : RollupSources(metrics.window_steps, metrics.step_seconds, metrics.qp_series,
                    metrics.segment_series) {}

RollupSources::RollupSources(size_t window_steps, double dt, const std::vector<RwSeries>& qps,
                             const SegmentSeriesMap& segments)
    : steps(window_steps), step_seconds(dt), qp_series(&qps), segment_series(&segments) {}

namespace {

// Sums QP-level series into buckets chosen by `bucket_of(qp)`.
template <typename BucketFn>
RwMatrix RollupComputeSide(const Fleet& fleet, const RollupSources& sources,
                           size_t bucket_count, BucketFn bucket_of) {
  RwMatrix out(bucket_count, sources.steps, sources.step_seconds);
  for (const Qp& qp : fleet.qps) {
    out.AccumulateRow(bucket_of(qp), (*sources.qp_series)[qp.id.value()]);
  }
  return out;
}

// Sums segment-level series into buckets chosen by `bucket_of(segment)`.
// Active segments are visited in ascending id order — the only order
// SegmentSeriesMap offers — so the per-bucket float sums are deterministic and
// independent of how the map was populated, e.g. by how many replay shards.
template <typename BucketFn>
RwMatrix RollupStorageSide(const Fleet& fleet, const RollupSources& sources,
                           size_t bucket_count, BucketFn bucket_of) {
  RwMatrix out(bucket_count, sources.steps, sources.step_seconds);
  const SegmentSeriesMap& segments = *sources.segment_series;
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentView segment = segments[i];
    out.AccumulateRow(bucket_of(fleet.segments[segment.id]), segment);
  }
  return out;
}

}  // namespace

RwMatrix RollupMatrixToVd(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.vds.size(),
                           [](const Qp& qp) { return qp.vd.value(); });
}

RwMatrix RollupMatrixToVm(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.vms.size(),
                           [](const Qp& qp) { return qp.vm.value(); });
}

RwMatrix RollupMatrixToUser(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.users.size(), [&fleet](const Qp& qp) {
    return fleet.vms[qp.vm.value()].user.value();
  });
}

RwMatrix RollupMatrixToWt(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.wts.size(),
                           [](const Qp& qp) { return qp.bound_wt.value(); });
}

RwMatrix RollupMatrixToComputeNode(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.nodes.size(),
                           [](const Qp& qp) { return qp.node.value(); });
}

RwMatrix RollupMatrixToBlockServer(const Fleet& fleet, const RollupSources& sources) {
  return RollupStorageSide(fleet, sources, fleet.block_servers.size(),
                           [](const Segment& segment) { return segment.server.value(); });
}

RwMatrix RollupMatrixToStorageNode(const Fleet& fleet, const RollupSources& sources) {
  return RollupStorageSide(fleet, sources, fleet.storage_nodes.size(),
                           [&fleet](const Segment& segment) {
                             return fleet.block_servers[segment.server.value()].node.value();
                           });
}

const std::vector<RwSeries>& RollupCache::Get(Level level) const {
  // Indexed by Level, in declaration order.
  static constexpr RwMatrix (*kFolds[])(const Fleet&, const RollupSources&) = {
      RollupMatrixToVd, RollupMatrixToVm,          RollupMatrixToUser,
      RollupMatrixToWt, RollupMatrixToComputeNode, RollupMatrixToBlockServer,
      RollupMatrixToStorageNode};
  Slot& slot = slots_[level];
  util::MutexLock lock(&slot.mu);
  if (!slot.value.has_value()) {
    if (level == kSeg) {
      const SegmentSeriesMap& segments = *sources_.segment_series;
      std::vector<RwSeries> flat;
      flat.reserve(segments.size());
      for (size_t i = 0; i < segments.size(); ++i) {
        flat.push_back(segments[i].Materialize());
      }
      slot.value = std::move(flat);
    } else {
      slot.value = kFolds[level](fleet_, sources_).ToSeriesVector();
    }
  }
  return *slot.value;
}

void RollupCache::FillAll() const {
  for (int level = 0; level < kLevelCount; ++level) {
    Get(static_cast<Level>(level));
  }
}

}  // namespace ebs
