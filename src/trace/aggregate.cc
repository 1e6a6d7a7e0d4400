#include "src/trace/aggregate.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ebs {

RollupSources::RollupSources(const MetricDataset& metrics)
    : RollupSources(metrics.window_steps, metrics.step_seconds, metrics.qp_series,
                    metrics.segment_series) {}

RollupSources::RollupSources(size_t window_steps, double dt, const std::vector<RwSeries>& qps,
                             const SegmentSeriesMap& segments)
    : steps(window_steps), step_seconds(dt), qp_series(&qps), segment_series(&segments) {}

namespace {

// dst[t] += src[t] * weight. A zero weight is skipped, which equals adding
// its 0.0 cells: an accumulator starts at +0.0 and so never holds -0.0.
void AccumulateWeighted(TimeSeries& dst, const TimeSeries& src, double weight) {
  if (weight == 0.0) {
    return;
  }
  for (size_t t = 0; t < dst.size(); ++t) {
    dst[t] += src[t] * weight;
  }
}

// Sums QP-level series into buckets chosen by `bucket_of(qp)`.
template <typename BucketFn>
std::vector<RwSeries> RollupComputeSide(const Fleet& fleet, const RollupSources& sources,
                                        size_t bucket_count, BucketFn bucket_of) {
  std::vector<RwSeries> out(bucket_count, RwSeries(sources.steps, sources.step_seconds));
  for (const Qp& qp : fleet.qps) {
    out[bucket_of(qp)].Accumulate((*sources.qp_series)[qp.id.value()]);
  }
  return out;
}

// Sums segment-level series into buckets chosen by `bucket_of(segment)`,
// each cell multiplied out of its source series as it is added.
template <typename BucketFn>
std::vector<RwSeries> RollupStorageSide(const Fleet& fleet, const RollupSources& sources,
                                        size_t bucket_count, BucketFn bucket_of) {
  std::vector<RwSeries> out(bucket_count, RwSeries(sources.steps, sources.step_seconds));
  const SegmentSeriesMap& segments = *sources.segment_series;
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentView segment = segments[i];
    RwSeries& dst = out[bucket_of(fleet.segments[segment.id])];
    AccumulateWeighted(dst.read_bytes, segment.source->read_bytes, segment.read_weight);
    AccumulateWeighted(dst.write_bytes, segment.source->write_bytes, segment.write_weight);
    AccumulateWeighted(dst.read_ops, segment.source->read_ops, segment.read_weight);
    AccumulateWeighted(dst.write_ops, segment.source->write_ops, segment.write_weight);
  }
  return out;
}

}  // namespace

std::vector<RwSeries> RollupToVd(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.vds.size(),
                           [](const Qp& qp) { return qp.vd.value(); });
}

std::vector<RwSeries> RollupToVm(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.vms.size(),
                           [](const Qp& qp) { return qp.vm.value(); });
}

std::vector<RwSeries> RollupToUser(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.users.size(), [&fleet](const Qp& qp) {
    return fleet.vms[qp.vm.value()].user.value();
  });
}

std::vector<RwSeries> RollupToWt(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.wts.size(),
                           [](const Qp& qp) { return qp.bound_wt.value(); });
}

std::vector<RwSeries> RollupToComputeNode(const Fleet& fleet, const RollupSources& sources) {
  return RollupComputeSide(fleet, sources, fleet.nodes.size(),
                           [](const Qp& qp) { return qp.node.value(); });
}

std::vector<RwSeries> RollupToBlockServer(const Fleet& fleet, const RollupSources& sources) {
  return RollupStorageSide(fleet, sources, fleet.block_servers.size(),
                           [](const Segment& segment) { return segment.server.value(); });
}

std::vector<RwSeries> RollupToStorageNode(const Fleet& fleet, const RollupSources& sources) {
  return RollupStorageSide(fleet, sources, fleet.storage_nodes.size(),
                           [&fleet](const Segment& segment) {
                             return fleet.block_servers[segment.server.value()].node.value();
                           });
}

MetricDataset AggregateTraces(const Fleet& fleet, const TraceDataset& traces,
                              double step_seconds, size_t window_steps) {
  MetricDataset metrics;
  metrics.step_seconds = step_seconds;
  metrics.window_steps = window_steps;
  metrics.qp_series.assign(fleet.qps.size(), RwSeries(window_steps, step_seconds));

  // Segment series are built apart, behind a fleet-sized slot table (no
  // per-record hash probe), then handed to the map as explicit entries in
  // ascending id order.
  std::vector<int32_t> slot_of(fleet.segments.size(), -1);
  std::vector<std::pair<uint32_t, RwSeries>> segments;

  const double scale = 1.0 / traces.sampling_rate;
  for (const TraceRecord& r : traces.records) {
    size_t step = static_cast<size_t>(r.timestamp / step_seconds);
    step = std::min(step, window_steps - 1);
    const double bytes = static_cast<double>(r.size_bytes) * scale;

    RwSeries& qp = metrics.qp_series[r.qp.value()];
    qp.MutableBytes(r.op)[step] += bytes;
    qp.MutableOps(r.op)[step] += scale;

    int32_t& slot = slot_of[r.segment.value()];
    if (slot < 0) {
      slot = static_cast<int32_t>(segments.size());
      segments.emplace_back(r.segment.value(), RwSeries(window_steps, step_seconds));
    }
    RwSeries& seg = segments[static_cast<size_t>(slot)].second;
    seg.MutableBytes(r.op)[step] += bytes;
    seg.MutableOps(r.op)[step] += scale;
  }
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, series] : segments) {
    metrics.segment_series.Insert(id, std::move(series));
  }
  return metrics;
}

TraceDataset DownsampleTraces(const TraceDataset& traces, double sampling_rate, Rng& rng) {
  TraceDataset out;
  out.window_seconds = traces.window_seconds;
  out.sampling_rate = traces.sampling_rate * sampling_rate;
  for (const TraceRecord& r : traces.records) {
    if (rng.NextBool(sampling_rate)) {
      out.records.push_back(r);
    }
  }
  return out;
}

}  // namespace ebs
