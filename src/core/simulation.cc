#include "src/core/simulation.h"

#include <utility>

#include "src/util/parallel.h"

namespace ebs {

EbsSimulation::EbsSimulation(SimulationConfig config)
    : StreamingSimulation(std::move(config), {.worker_threads = DefaultGenerateWorkers()}) {
  Run();
}

}  // namespace ebs
