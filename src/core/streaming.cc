#include "src/core/streaming.h"

#include <memory>
#include <stdexcept>

#include "src/core/validate.h"
#include "src/obs/metrics.h"
#include "src/replay/store_source.h"

namespace ebs {

namespace {

Fleet TimedBuildFleet(const FleetConfig& config) {
  obs::ScopedTimer timer(obs::MetricRegistry::Global().GetTimer("core.build_fleet"));
  return BuildFleet(config);
}

}  // namespace

StreamingSimulation::StreamingSimulation(SimulationConfig config, ReplayOptions options)
    : config_(CheckSimulationConfig(config)),
      fleet_(TimedBuildFleet(config_.fleet)),
      collector_(config_.workload.sampling_rate),
      engine_(fleet_, config_.workload, options),
      overlays_(fleet_, config_, engine_.fault_driver()) {
  engine_.AddSink(&collector_);
  for (ReplaySink* sink : overlays_.Sinks()) {
    engine_.AddSink(sink);
  }
}

StreamingSimulation::StreamingSimulation(const std::string& store_path, SimulationConfig config,
                                         ReplayOptions options)
    : config_(CheckSimulationConfig(config)),
      fleet_(TimedBuildFleet(config_.fleet)),
      collector_(config_.workload.sampling_rate),
      engine_(fleet_, std::make_unique<StoreReplaySource>(fleet_, store_path), options),
      overlays_(fleet_, config_, engine_.fault_driver()) {
  engine_.AddSink(&collector_);
  for (ReplaySink* sink : overlays_.Sinks()) {
    engine_.AddSink(sink);
  }
}

void StreamingSimulation::AddSink(ReplaySink* sink) {
  if (ran_) {
    throw std::logic_error("StreamingSimulation: AddSink after Run");
  }
  engine_.AddSink(sink);
}

void StreamingSimulation::Run() {
  if (ran_) {
    throw std::logic_error("StreamingSimulation: Run called twice");
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  {
    obs::ScopedTimer timer(registry.GetTimer("core.streaming_run"));
    workload_ = engine_.Run();
  }
  obs::ScopedTimer finalize_timer(registry.GetTimer("core.streaming_finalize"));
  workload_.traces = collector_.TakeDataset();
  rollups_.emplace(fleet_, workload_.metrics);
  ran_ = true;
}

void StreamingSimulation::RequireRan() const {
  if (!ran_) {
    throw std::logic_error("StreamingSimulation: dataset accessed before Run");
  }
}

const WorkloadResult& StreamingSimulation::workload() const {
  RequireRan();
  return workload_;
}

const RollupCache& StreamingSimulation::rollups() const {
  RequireRan();
  return *rollups_;
}

}  // namespace ebs
