// Full-rate per-VD IO stream generation.
//
// The fleet generator emits *sampled* traces (as DiTing does). Per-IO
// micro-studies — prefetcher behaviour, cache warm-up, sequential-run
// detection — are distorted by sampling, because consecutive sampled IOs are
// hundreds of real IOs apart. This generator replays a single VD at full
// rate with the same temporal and spatial models the fleet uses.

#ifndef SRC_WORKLOAD_IO_STREAM_H_
#define SRC_WORKLOAD_IO_STREAM_H_

#include <cstdint>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

struct IoStreamConfig {
  uint64_t seed = 7;
  size_t window_steps = 120;
  double step_seconds = 1.0;
  double read_rate_mbps = 20.0;   // mean offered read rate
  double write_rate_mbps = 60.0;  // mean offered write rate
  size_t max_ios = 2'000'000;     // hard cap; generation stops beyond it
};

// Generates every IO of one VD over the window, timestamp-ordered; IOs with
// equal timestamps keep their generation order (a step's reads before its
// writes). Only the fields a per-IO study needs are populated: timestamp, op,
// size, offset, vd, segment. The VD's application profile comes from its VM.
std::vector<TraceRecord> GenerateFullRateStream(const Fleet& fleet, VdId vd,
                                                const IoStreamConfig& config);

}  // namespace ebs

#endif  // SRC_WORKLOAD_IO_STREAM_H_
