#include "src/replay/parallel_generate.h"

#include <thread>
#include <utility>

#include "src/replay/engine.h"
#include "src/replay/sinks.h"

namespace ebs {

WorkloadResult GenerateWorkloadParallel(const Fleet& fleet, const WorkloadConfig& config,
                                        size_t worker_threads) {
  ReplayEngine engine(fleet, config, {.worker_threads = worker_threads});
  TraceCollectorSink collector(config.sampling_rate);
  engine.AddSink(&collector);
  WorkloadResult result = engine.Run();
  result.traces = collector.TakeDataset();
  return result;
}

size_t DefaultGenerateWorkers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

WorkloadResult WorkloadGenerator::Generate() const {
  return GenerateWorkloadParallel(fleet_, config_, DefaultGenerateWorkers());
}

}  // namespace ebs
