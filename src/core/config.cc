#include "src/core/config.h"

namespace ebs {

SimulationConfig DcPreset(int dc_index) {
  SimulationConfig config;
  config.fleet.seed = 1000 + static_cast<uint64_t>(dc_index);
  config.workload.seed = 2000 + static_cast<uint64_t>(dc_index);
  config.fleet.user_count = 160;
  switch (dc_index) {
    case 2:
      // A flatter tenant mix (the paper's DC-2 shows the mildest VM skew).
      config.fleet.app_vm_weights = {0.22, 0.24, 0.18, 0.05, 0.19, 0.12};
      config.fleet.vms_per_user_sigma = 0.9;
      break;
    case 3:
      // The most skewed DC.
      config.fleet.app_vm_weights = {0.08, 0.30, 0.16, 0.05, 0.22, 0.19};
      config.fleet.vms_per_user_sigma = 1.25;
      break;
    default:
      break;
  }
  return config;
}

SimulationConfig StorageStudyPreset(uint64_t seed) {
  SimulationConfig config;
  config.fleet.seed = seed;
  config.workload.seed = seed * 7 + 1;
  config.fleet.user_count = 320;
  config.fleet.storage_cluster_count = 8;
  config.fleet.storage_nodes_per_cluster = 12;
  config.workload.max_vd_mean_write_rate_mbps = 5.0;
  return config;
}

OverlaySinks::OverlaySinks(const Fleet& fleet, const SimulationConfig& config,
                           const FaultDriver* engine_driver) {
  if (config.queueing.enabled) {
    qmodel_.emplace(config.queueing, config.workload.sampling_rate);
  }
  if (config.control.enabled) {
    if (engine_driver == nullptr) {
      engine_driver = &fault_driver_.emplace(fleet, config.workload.faults,
                                             config.workload.window_steps,
                                             config.workload.step_seconds);
    }
    plane_.emplace(fleet, config.control, qmodel_ ? &*qmodel_ : nullptr);
    plane_->set_fault_driver(engine_driver);
  }
}

std::vector<ReplaySink*> OverlaySinks::Sinks() {
  std::vector<ReplaySink*> sinks;
  if (qmodel_) {
    sinks.push_back(&*qmodel_);
  }
  if (plane_) {
    const std::vector<ReplaySink*> plane_sinks = plane_->Sinks();
    sinks.insert(sinks.end(), plane_sinks.begin(), plane_sinks.end());
  }
  return sinks;
}

}  // namespace ebs
