// The simulation pipeline: build a fleet, generate its datasets through the
// sharded replay engine, and drive the registered sinks online.
//
// StreamingSimulation runs generation on worker threads; the merged IO stream
// feeds the built-in trace collector, the overlay sinks (qmodel, control) and
// any sinks the caller registers. The entity-level rollups are folded after
// the run, each level on first access, in chunks of entities on the reading
// thread plus DefaultGenerateWorkers() helpers. For a fixed config every
// dataset, rollup, qmodel result and decision log is bit-identical at any
// worker-thread count. EbsSimulation (simulation.h) is this pipeline run in
// its constructor on DefaultGenerateWorkers() threads.
//
//   ebs::StreamingSimulation sim(ebs::DcPreset(1), {.worker_threads = 8});
//   ebs::OnlineLendingSink lending(sim.fleet(), groups, throttle_config);
//   sim.AddSink(&lending);
//   sim.Run();
//   const auto& vm = sim.VmSeries();  // == EbsSimulation(DcPreset(1)).VmSeries()

#ifndef SRC_CORE_STREAMING_H_
#define SRC_CORE_STREAMING_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/replay/engine.h"
#include "src/replay/sinks.h"
#include "src/trace/rollup_dense.h"

namespace ebs {

class StreamingSimulation {
 public:
  // Both constructors validate `config` before building anything and throw
  // std::invalid_argument with the validator's message.
  explicit StreamingSimulation(SimulationConfig config = DcPreset(1), ReplayOptions options = {});

  // Replay-from-disk: the same pipeline driven by an EBST trace store
  // (src/trace/store.h) written from a run of the same config. The fleet is
  // still built from `config` (the store carries no topology); the store must
  // have a metrics section and is cross-checked against the fleet — throws
  // TraceStoreError (kNoMetrics/kMismatch/corruption) on a file that cannot
  // drive this fleet. Sinks observe the exact event stream of the recorded
  // run; fault_driver() is nullptr (recorded fault outcomes replay, the live
  // driver does not).
  StreamingSimulation(const std::string& store_path, SimulationConfig config,
                      ReplayOptions options = {});

  // Self-referential (the engine and the sinks point at fleet_): pin it.
  StreamingSimulation(const StreamingSimulation&) = delete;
  StreamingSimulation& operator=(const StreamingSimulation&) = delete;

  // Registers an extra observer (not owned); runs after the built-in trace
  // collector, qmodel and control sinks. Must be called before Run().
  void AddSink(ReplaySink* sink);

  // Generates the observation window through the replay engine. Call once.
  void Run();

  const SimulationConfig& config() const { return config_; }
  const Fleet& fleet() const { return fleet_; }
  const ReplayStats& stats() const { return engine_.stats(); }

  // Dataset accessors; valid after Run(). Trace records are in the merged
  // stream order (timestamp, vd, sequence).
  const WorkloadResult& workload() const;
  const MetricDataset& metrics() const { return workload().metrics; }
  const TraceDataset& traces() const { return workload().traces; }
  // Fault accounting; valid after Run(). All-zero when config.workload.faults
  // is empty; field for field the same under any worker count.
  const FaultStats& fault_stats() const { return workload().faults; }
  // nullptr on a healthy run; sinks that degrade under faults take this.
  const FaultDriver* fault_driver() const { return engine_.fault_driver(); }
  // Queueing-mode latency product; nullptr unless config.queueing.enabled.
  // Valid after Run(); bit-identical at any worker count (the sink consumes
  // the merged stream's canonical order).
  const qmodel::QueueModelResult* queue_result() const {
    return overlays_.qmodel() != nullptr ? &overlays_.qmodel()->result() : nullptr;
  }
  // Closed-loop control plane; nullptr unless config.control.enabled. The
  // decision log is final after Run() and bit-identical at any worker count.
  // The plane's fault signal comes from config.workload's schedule on live and
  // store replay alike, keeping crash-heavy store replay log-identical to the
  // recorded run.
  const control::ControlPlane* control_plane() const { return overlays_.plane(); }
  control::ControlPlane* control_plane() { return overlays_.plane(); }
  const control::DecisionLog* control_log() const {
    return overlays_.plane() != nullptr ? &overlays_.plane()->log() : nullptr;
  }

  // Rollups, each level folded once on first access after Run()
  // (RollupCache), on the calling thread plus DefaultGenerateWorkers()
  // helpers; bit-identical at any helper count. Safe to call from multiple
  // threads.
  const std::vector<RwSeries>& VdSeries() const { return rollups().vd(); }
  const std::vector<RwSeries>& VmSeries() const { return rollups().vm(); }
  const std::vector<RwSeries>& UserSeries() const { return rollups().user(); }
  const std::vector<RwSeries>& WtSeries() const { return rollups().wt(); }
  const std::vector<RwSeries>& CnSeries() const { return rollups().cn(); }
  const std::vector<RwSeries>& BsSeries() const { return rollups().bs(); }
  const std::vector<RwSeries>& SnSeries() const { return rollups().sn(); }
  // Active-segment series as a flat vector in ascending segment-id order
  // (each materialized from its source series once, on first access).
  const std::vector<RwSeries>& SegSeries() const { return rollups().seg(); }

 private:
  const RollupCache& rollups() const;
  void RequireRan() const;

  SimulationConfig config_;
  Fleet fleet_;
  TraceCollectorSink collector_;
  ReplayEngine engine_;
  OverlaySinks overlays_;  // its plane reads engine_'s fault driver
  WorkloadResult workload_;
  std::optional<RollupCache> rollups_;  // engaged by Run()
  bool ran_ = false;
};

}  // namespace ebs

#endif  // SRC_CORE_STREAMING_H_
