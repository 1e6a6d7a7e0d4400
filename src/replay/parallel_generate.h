// Batch generation: the replay engine with a TraceCollectorSink as its only
// sink, so the trace dataset is the merged (timestamp, vd, sequence) stream.
// WorkloadGenerator::Generate (src/workload/generator.h) is defined here: it
// runs GenerateWorkloadParallel on DefaultGenerateWorkers() threads
// (src/util/parallel.h).

#ifndef SRC_REPLAY_PARALLEL_GENERATE_H_
#define SRC_REPLAY_PARALLEL_GENERATE_H_

#include <cstddef>

#include "src/topology/fleet.h"
#include "src/workload/generator.h"

namespace ebs {

// Deterministic in (fleet, config.seed); bit-identical, record order
// included, for any worker_threads (clamped to [1, VM count]). Throws
// UnrecoverableFaultError at a scheduled abort step.
WorkloadResult GenerateWorkloadParallel(const Fleet& fleet, const WorkloadConfig& config,
                                        size_t worker_threads);

}  // namespace ebs

#endif  // SRC_REPLAY_PARALLEL_GENERATE_H_
