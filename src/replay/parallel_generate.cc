#include "src/replay/parallel_generate.h"

#include <utility>

#include "src/replay/engine.h"
#include "src/replay/sinks.h"
#include "src/util/parallel.h"

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

WorkloadResult WorkloadGenerator::Generate() const {
  return GenerateWorkloadParallel(fleet_, config_, DefaultGenerateWorkers());
}

}  // namespace ebs
