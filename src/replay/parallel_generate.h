// Parallel batch generation: the replay engine with a TraceCollectorSink as
// its only sink. VMs are round-robin partitioned across worker threads
// (deterministically seeded per VM, so the output is independent of the
// partition) and the engine's merge emits the canonical (timestamp, vd,
// sequence) stream into the collector.
//
// This is the materializing entry point for callers that want the whole
// WorkloadResult generated on several threads — the tier sweeps in
// bench_scale, where generation (not aggregation) is the wall. The result is
// bit-identical to WorkloadGenerator::Generate, record order included, for
// any worker count.

#ifndef SRC_REPLAY_PARALLEL_GENERATE_H_
#define SRC_REPLAY_PARALLEL_GENERATE_H_

#include <cstddef>

#include "src/topology/fleet.h"
#include "src/workload/generator.h"

namespace ebs {

// Deterministic in (fleet, config.seed); independent of worker_threads (which
// is clamped to [1, VM count]). Faults behave as in the streaming engine:
// per-record transforms applied shard-side, UnrecoverableFaultError at a
// scheduled abort step.
WorkloadResult GenerateWorkloadParallel(const Fleet& fleet, const WorkloadConfig& config,
                                        size_t worker_threads);

}  // namespace ebs

#endif  // SRC_REPLAY_PARALLEL_GENERATE_H_
