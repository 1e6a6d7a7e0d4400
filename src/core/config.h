// Declarations both facades share: the simulation config, its presets and the
// optional overlay sinks a facade chains after the dataset producer. The
// facades themselves live in streaming.h (StreamingSimulation) and
// simulation.h (EbsSimulation, which includes streaming.h).

#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <optional>
#include <vector>

#include "src/control/plane.h"
#include "src/fault/driver.h"
#include "src/qmodel/queue_model.h"
#include "src/qmodel/sink.h"
#include "src/replay/sink.h"
#include "src/topology/fleet.h"
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
  // Opt-in closed-loop control plane (src/control). Off by default. The plane
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

// The optional sinks the facade chains after the trace collector: the qmodel
// sink (config.queueing) and the closed-loop control plane (config.control)
// with the fault driver that feeds it the down-BS signal. A driver is a pure
// function of config.workload.faults, so live and store-replay runs hand the
// plane the same signal: the plane reads `engine_driver`, the live engine's
// driver for that schedule, and only when it is nullptr (store replay, an
// empty schedule) is a driver built here. `engine_driver` must outlive this
// object. `config` must already be valid (the facades check it before
// building the fleet).
class OverlaySinks {
 public:
  OverlaySinks(const Fleet& fleet, const SimulationConfig& config,
               const FaultDriver* engine_driver);
  // The plane points at the qmodel sink and the driver: pin it.
  OverlaySinks(const OverlaySinks&) = delete;
  OverlaySinks& operator=(const OverlaySinks&) = delete;

  // Registration order: qmodel, then the plane's lending -> cache -> wt-cov ->
  // plane (ControlPlane::Sinks()).
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

}  // namespace ebs

#endif  // SRC_CORE_CONFIG_H_
