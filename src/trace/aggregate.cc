#include "src/trace/aggregate.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/trace/rollup_dense.h"

namespace ebs {

// The vector<RwSeries> rollups are materialized views of the SoA matrix path
// (src/trace/rollup_dense.h). The matrix visits sources in the same order the
// original per-entity accumulation used, so each extracted series is
// bit-identical to the legacy result — the dense-rollup equivalence test
// locks this in against a map-based reference implementation.

std::vector<RwSeries> RollupToVd(const Fleet& fleet, const MetricDataset& metrics) {
  return RollupMatrixToVd(fleet, metrics).ToSeriesVector();
}

std::vector<RwSeries> RollupToVm(const Fleet& fleet, const MetricDataset& metrics) {
  return RollupMatrixToVm(fleet, metrics).ToSeriesVector();
}

std::vector<RwSeries> RollupToUser(const Fleet& fleet, const MetricDataset& metrics) {
  return RollupMatrixToUser(fleet, metrics).ToSeriesVector();
}

std::vector<RwSeries> RollupToWt(const Fleet& fleet, const MetricDataset& metrics) {
  return RollupMatrixToWt(fleet, metrics).ToSeriesVector();
}

std::vector<RwSeries> RollupToComputeNode(const Fleet& fleet, const MetricDataset& metrics) {
  return RollupMatrixToComputeNode(fleet, metrics).ToSeriesVector();
}

std::vector<RwSeries> RollupToBlockServer(const Fleet& fleet, const MetricDataset& metrics) {
  return RollupMatrixToBlockServer(fleet, metrics).ToSeriesVector();
}

std::vector<RwSeries> RollupToStorageNode(const Fleet& fleet, const MetricDataset& metrics) {
  return RollupMatrixToStorageNode(fleet, metrics).ToSeriesVector();
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
