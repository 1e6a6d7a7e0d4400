// Rollups of the metric dataset to the aggregation levels studied in the
// paper (Table 3: CN / VM / SN / Seg, plus WT, VD and user for §4-§6), and
// reconstruction of metric series from sampled traces.

#ifndef SRC_TRACE_AGGREGATE_H_
#define SRC_TRACE_AGGREGATE_H_

#include <cstddef>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"
#include "src/util/rng.h"

namespace ebs {

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

// Each rollup returns one RwSeries per entity, indexed by the entity id.
// The compute levels add QP series in fleet order, the storage levels add
// segment series in ascending id order, so every sum is deterministic and
// independent of how the sources were populated (e.g. by how many replay
// shards). Each fold groups its members by entity with a stable counting sort
// and fills chunks of entities on the calling thread plus
// DefaultGenerateWorkers() helpers (src/util/parallel.h); a chunk allocates
// and fills only its own entities, so every cell sees the same additions in
// the same order at any helper count. A level too small to split runs on the
// calling thread alone.
std::vector<RwSeries> RollupToVd(const Fleet& fleet, const RollupSources& sources);
std::vector<RwSeries> RollupToVm(const Fleet& fleet, const RollupSources& sources);
std::vector<RwSeries> RollupToUser(const Fleet& fleet, const RollupSources& sources);
std::vector<RwSeries> RollupToWt(const Fleet& fleet, const RollupSources& sources);
std::vector<RwSeries> RollupToComputeNode(const Fleet& fleet, const RollupSources& sources);
std::vector<RwSeries> RollupToBlockServer(const Fleet& fleet, const RollupSources& sources);
std::vector<RwSeries> RollupToStorageNode(const Fleet& fleet, const RollupSources& sources);

// The active segments' series in ascending id order, each materialized from
// its source series (SegmentView::Materialize), chunked like the folds.
std::vector<RwSeries> MaterializeSegments(const RollupSources& sources);

// Rebuilds an (approximate) metric dataset from sampled traces by scaling
// each record by 1/sampling_rate. Used to validate dataset consistency and to
// mimic analyses that only have trace data available.
MetricDataset AggregateTraces(const Fleet& fleet, const TraceDataset& traces,
                              double step_seconds, size_t window_steps);

// Random 1/k thinning of a trace dataset (DiTing's sampling stage).
TraceDataset DownsampleTraces(const TraceDataset& traces, double sampling_rate, Rng& rng);

}  // namespace ebs

#endif  // SRC_TRACE_AGGREGATE_H_
