// Measurement pipelines for the paper's baseline skewness statistics (§3).
//
// Spatial skewness: 1%- and 20%-CCR over per-entity traffic volumes.
// Temporal skewness: 50%ile of per-entity Peak-to-Average ratios, computed
// over entities with non-zero traffic (idle entities carry no P2A sample).

#ifndef SRC_ANALYSIS_SKEWNESS_H_
#define SRC_ANALYSIS_SKEWNESS_H_

#include <array>
#include <span>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

// Read ([0]) / write ([1]) statistic pair, matching the paper's "R / W" cells.
using RwPair = std::array<double, kOpTypeCount>;

struct LevelSkewness {
  RwPair ccr1 = {};    // 1%-CCR, fraction in [0,1]
  RwPair ccr20 = {};   // 20%-CCR
  RwPair p2a50 = {};   // 50%ile Peak-to-Average ratio
};

// One entity's channel, read once: `total` is the left-to-right sum from 0.0
// (TimeSeries::SumAll), `peak` the first maximum under `<` (std::max_element;
// 0 for an empty channel) and `p2a` PeakToAverage(): peak / mean, 0 when the
// channel is empty or its mean is <= 0. All three are bit-identical to those
// functions.
struct ChannelFold {
  double total = 0.0;
  double peak = 0.0;
  double p2a = 0.0;
};
ChannelFold FoldChannel(std::span<const double> values);

// The three functions below read every entity's channel once through
// FoldChannel, in chunks of entities of about 2^16 series steps on
// DefaultGenerateWorkers() helpers (a level under one chunk stays on the
// calling thread and starts no thread). A chunk writes only its own entities'
// folds, and CCR, percentile and the idle filter then run in entity order, so
// the results do not depend on the helper count.

// Aggregated skewness for one aggregation level (one entity per RwSeries).
LevelSkewness ComputeLevelSkewness(std::span<const RwSeries> entities);

// Per-entity total bytes for one op.
std::vector<double> EntityTotals(std::span<const RwSeries> entities, OpType op);

// Per-entity P2A values for entities with non-zero traffic of `op`.
std::vector<double> EntityP2a(std::span<const RwSeries> entities, OpType op);

// Table 4 row: per-application-type skewness at the VM level.
struct AppSkewness {
  AppType app = AppType::kWebApp;
  RwPair ccr1 = {};
  RwPair ccr20 = {};
  RwPair traffic_share = {};  // share of the fleet total
};
std::vector<AppSkewness> ComputeAppSkewness(const Fleet& fleet,
                                            std::span<const RwSeries> vm_series);

// Normalized CoV of the per-entity traffic accumulated over window
// [begin, end) steps, for one op. Used by the WT/QP/VD CoV ladders (§4).
double WindowNormalizedCoV(std::span<const RwSeries> entities, OpType op, size_t begin,
                           size_t end);

// Normalized write-to-read ratio (Eq. 2): (W - R) / (W + R) in [-1, 1];
// returns 0 when both are 0.
double WriteToReadRatio(double write, double read);

}  // namespace ebs

#endif  // SRC_ANALYSIS_SKEWNESS_H_
