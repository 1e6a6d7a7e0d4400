// Batch-side sink driver: replays a fully-materialized WorkloadResult through
// a ReplaySink chain in the streaming engine's exact order.
//
// The batch dataset is already in the merged stream's canonical order
// (TraceRecordBefore: timestamp, then vd, a VD's ties in emission order), so
// the driver walks it as is and assigns per-VD sequences in that order.
// Events are delivered per step with one OnStepComplete per step boundary,
// exactly as the merge loop does, which is what makes a sink chain driven over
// batch data bit-identical to the same chain registered on the streaming
// engine (EbsSimulation's qmodel and control overlays ride on this).

#ifndef SRC_CORE_SINK_DRIVE_H_
#define SRC_CORE_SINK_DRIVE_H_

#include <vector>

#include "src/replay/sink.h"
#include "src/topology/fleet.h"
#include "src/workload/generator.h"

namespace ebs {

// Runs OnStart / OnEvent* / OnStepComplete* / OnFinish over `result`'s data.
// `window_steps` / `step_seconds` must match the workload config that built
// the result. Sinks are invoked in list order, like the engine's chain.
// Throws std::invalid_argument, before any sink runs, when the trace records
// are not in canonical order.
void DriveSinksOverResult(const Fleet& fleet, const WorkloadResult& result,
                          size_t window_steps, double step_seconds,
                          const std::vector<ReplaySink*>& sinks);

}  // namespace ebs

#endif  // SRC_CORE_SINK_DRIVE_H_
