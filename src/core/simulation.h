// Public facade: build a fleet, synthesize its datasets, and expose cached
// rollups. This is the entry point examples and benches use.
//
//   ebs::EbsSimulation sim(ebs::DcPreset(1));
//   const auto& vm = sim.VmSeries();
//   auto skew = ebs::ComputeLevelSkewness(vm);

#ifndef SRC_CORE_SIMULATION_H_
#define SRC_CORE_SIMULATION_H_

#include <optional>
#include <vector>

#include "src/control/plane.h"
#include "src/fault/driver.h"
#include "src/qmodel/queue_model.h"
#include "src/qmodel/sink.h"
#include "src/replay/sink.h"
#include "src/topology/fleet.h"
#include "src/trace/aggregate.h"
#include "src/trace/records.h"
#include "src/trace/rollup_dense.h"
#include "src/workload/generator.h"

namespace ebs {

struct SimulationConfig {
  FleetConfig fleet;
  WorkloadConfig workload;
  // Opt-in discrete-event latency mode (src/qmodel). Off by default: the fast
  // additive component model stays what every calibration test sees; enabling
  // it adds per-VD/per-tenant latency distributions and SLO counters on the
  // side without perturbing any dataset.
  qmodel::QueueModelConfig queueing;
  // Opt-in closed-loop control plane (src/control). Off by default. The loop
  // only actuates mitigation overlays (lending rate, cache admission, qmodel
  // remap), never generation, so the base datasets stay bit-identical to a
  // run without it.
  control::ControlConfig control;
};

// A preset mimicking one of the paper's three data centers: same model,
// different seeds and slightly different tenant mixes.
SimulationConfig DcPreset(int dc_index);

// A preset with many storage clusters, used by the §6 storage-side studies
// (Fig 4/5 need a population of clusters for their CDFs).
SimulationConfig StorageStudyPreset(uint64_t seed = 5);

// The optional sinks both facades chain after the dataset producer: the qmodel
// sink (config.queueing) and the closed-loop control plane (config.control)
// with the fault driver that feeds it the down-BS signal. The driver is built
// from config.workload.faults — a pure function of the schedule — so live,
// store-replay and batch runs hand the loop the same signal. `config` must
// already be valid (the facades check it before building the fleet).
class OverlaySinks {
 public:
  OverlaySinks(const Fleet& fleet, const SimulationConfig& config);
  // The plane points at the qmodel sink and the driver: pin it.
  OverlaySinks(const OverlaySinks&) = delete;
  OverlaySinks& operator=(const OverlaySinks&) = delete;

  // Registration order: qmodel, then the plane's lending -> cache -> wt-cov ->
  // control.
  std::vector<ReplaySink*> Sinks();

  // nullptr unless config.queueing.enabled / config.control.enabled.
  const qmodel::QueueModelSink* qmodel() const { return qmodel_ ? &*qmodel_ : nullptr; }
  const control::ControlPlane* plane() const { return plane_ ? &*plane_ : nullptr; }
  control::ControlPlane* plane() { return plane_ ? &*plane_ : nullptr; }

 private:
  std::optional<qmodel::QueueModelSink> qmodel_;
  std::optional<FaultDriver> fault_driver_;
  std::optional<control::ControlPlane> plane_;
};

// Batch facade. The constructor validates `config` before building anything
// (std::invalid_argument with the validator's message), builds the fleet,
// generates the datasets and, when queueing or control is on, drives its
// OverlaySinks over them with DriveSinksOverResult — the same chain, in the
// same order, that StreamingSimulation registers on the replay engine.
class EbsSimulation {
 public:
  explicit EbsSimulation(SimulationConfig config = DcPreset(1));

  const SimulationConfig& config() const { return config_; }
  const Fleet& fleet() const { return fleet_; }
  const WorkloadResult& workload() const { return workload_; }
  const MetricDataset& metrics() const { return workload_.metrics; }
  const TraceDataset& traces() const { return workload_.traces; }
  // Fault accounting of the run; all-zero when config.workload.faults is
  // empty. Construction throws UnrecoverableFaultError for schedules carrying
  // a kUnrecoverable event (generation happens in the constructor).
  const FaultStats& fault_stats() const { return workload_.faults; }
  // Queueing-mode latency product; nullptr unless config.queueing.enabled.
  // Bit-identical to the streaming facade's queue_result() for the same
  // config, at any worker count.
  const qmodel::QueueModelResult* queue_result() const {
    return overlays_.qmodel() != nullptr ? &overlays_.qmodel()->result() : nullptr;
  }
  // Closed-loop control plane; nullptr unless config.control.enabled. The
  // decision log is final after construction (the batch driver ran the whole
  // window) and bit-identical to the streaming facade's log for the same
  // config, at any worker count — the decision-audit contract.
  const control::ControlPlane* control_plane() const { return overlays_.plane(); }
  const control::DecisionLog* control_log() const {
    return overlays_.plane() != nullptr ? &overlays_.plane()->log() : nullptr;
  }

  // Rollups, each level computed once on first use (RollupCache). Safe to
  // call from multiple threads concurrently.
  const std::vector<RwSeries>& VdSeries() const { return rollups_.vd(); }
  const std::vector<RwSeries>& VmSeries() const { return rollups_.vm(); }
  const std::vector<RwSeries>& UserSeries() const { return rollups_.user(); }
  const std::vector<RwSeries>& WtSeries() const { return rollups_.wt(); }
  const std::vector<RwSeries>& CnSeries() const { return rollups_.cn(); }
  const std::vector<RwSeries>& BsSeries() const { return rollups_.bs(); }
  const std::vector<RwSeries>& SnSeries() const { return rollups_.sn(); }
  // Active-segment series as a flat vector in ascending segment-id order
  // (each materialized from its source series once, on first access).
  const std::vector<RwSeries>& SegSeries() const { return rollups_.seg(); }

 private:
  SimulationConfig config_;
  Fleet fleet_;
  WorkloadResult workload_;
  RollupCache rollups_;
  OverlaySinks overlays_;
};

}  // namespace ebs

#endif  // SRC_CORE_SIMULATION_H_
