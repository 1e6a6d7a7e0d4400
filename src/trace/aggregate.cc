#include "src/trace/aggregate.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "src/util/parallel.h"

namespace ebs {

RollupSources::RollupSources(const MetricDataset& metrics)
    : RollupSources(metrics.window_steps, metrics.step_seconds, metrics.qp_series,
                    metrics.segment_series) {}

RollupSources::RollupSources(size_t window_steps, double dt, const std::vector<RwSeries>& qps,
                             const SegmentSeriesMap& segments)
    : steps(window_steps), step_seconds(dt), qp_series(&qps), segment_series(&segments) {}

namespace {

// The work of one chunk, in series steps: an output costs its own series plus
// one per member it adds. A level under one chunk of work runs on the calling
// thread and starts no thread.
constexpr size_t kChunkSteps = size_t{1} << 16;

// Members grouped by output with a stable counting sort: output b's members
// are members[offsets[b], offsets[b + 1]), in ascending member index.
struct Groups {
  std::vector<size_t> offsets;
  std::vector<uint32_t> members;
};

template <typename BucketOf>
Groups GroupByBucket(size_t member_count, size_t bucket_count, BucketOf bucket_of) {
  std::vector<uint32_t> bucket(member_count);
  Groups groups;
  groups.offsets.assign(bucket_count + 1, 0);
  for (size_t m = 0; m < member_count; ++m) {
    bucket[m] = static_cast<uint32_t>(bucket_of(m));
    ++groups.offsets[bucket[m] + 1];
  }
  std::partial_sum(groups.offsets.begin(), groups.offsets.end(), groups.offsets.begin());
  std::vector<size_t> next(groups.offsets.begin(), groups.offsets.end() - 1);
  groups.members.resize(member_count);
  for (size_t m = 0; m < member_count; ++m) {
    groups.members[next[bucket[m]]++] = static_cast<uint32_t>(m);
  }
  return groups;
}

// One zeroed RwSeries per bucket, with add(dst, member) applied for each of
// the bucket's members in ascending order: the addition sequence of a walk
// over the members in that order, chunked over the buckets.
template <typename Add>
std::vector<RwSeries> FoldGroups(const Groups& groups, const RollupSources& sources, Add add) {
  const size_t bucket_count = groups.offsets.size() - 1;
  std::vector<RwSeries> out(bucket_count);
  ForEachChunk(
      bucket_count, kChunkSteps,
      [&](size_t b) { return (groups.offsets[b + 1] - groups.offsets[b] + 1) * sources.steps; },
      [&](size_t first, size_t last) {
        for (size_t b = first; b < last; ++b) {
          out[b] = RwSeries(sources.steps, sources.step_seconds);
          for (size_t k = groups.offsets[b]; k < groups.offsets[b + 1]; ++k) {
            add(out[b], groups.members[k]);
          }
        }
      });
  return out;
}

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

// Sums QP-level series into buckets chosen by `bucket_of(qp)`, each bucket's
// QPs in fleet order.
template <typename BucketFn>
std::vector<RwSeries> RollupComputeSide(const Fleet& fleet, const RollupSources& sources,
                                        size_t bucket_count, BucketFn bucket_of) {
  const Groups groups = GroupByBucket(fleet.qps.size(), bucket_count,
                                      [&](size_t q) { return bucket_of(fleet.qps[q]); });
  return FoldGroups(groups, sources, [&](RwSeries& dst, uint32_t q) {
    dst.Accumulate((*sources.qp_series)[fleet.qps[q].id.value()]);
  });
}

// Sums segment-level series into buckets chosen by `bucket_of(segment)`, each
// bucket's segments in ascending id order, each cell multiplied out of its
// source series as it is added.
template <typename BucketFn>
std::vector<RwSeries> RollupStorageSide(const Fleet& fleet, const RollupSources& sources,
                                        size_t bucket_count, BucketFn bucket_of) {
  const SegmentSeriesMap& segments = *sources.segment_series;
  const Groups groups = GroupByBucket(segments.size(), bucket_count, [&](size_t i) {
    return bucket_of(fleet.segments[segments[i].id]);
  });
  return FoldGroups(groups, sources, [&segments](RwSeries& dst, uint32_t i) {
    const SegmentView segment = segments[i];
    AccumulateWeighted(dst.read_bytes, segment.source->read_bytes, segment.read_weight);
    AccumulateWeighted(dst.write_bytes, segment.source->write_bytes, segment.write_weight);
    AccumulateWeighted(dst.read_ops, segment.source->read_ops, segment.read_weight);
    AccumulateWeighted(dst.write_ops, segment.source->write_ops, segment.write_weight);
  });
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

std::vector<RwSeries> MaterializeSegments(const RollupSources& sources) {
  const SegmentSeriesMap& segments = *sources.segment_series;
  std::vector<RwSeries> out(segments.size());
  ForEachChunk(
      segments.size(), kChunkSteps, [&](size_t) { return sources.steps; },
      [&](size_t first, size_t last) {
        for (size_t i = first; i < last; ++i) {
          out[i] = segments[i].Materialize();
        }
      });
  return out;
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
