// Public facade: build a fleet, synthesize its datasets, and expose cached
// rollups. This is the entry point examples and benches use.
//
//   ebs::EbsSimulation sim(ebs::DcPreset(1));
//   const auto& vm = sim.VmSeries();
//   auto skew = ebs::ComputeLevelSkewness(vm);

#ifndef SRC_CORE_SIMULATION_H_
#define SRC_CORE_SIMULATION_H_

#include "src/core/config.h"
#include "src/core/streaming.h"

namespace ebs {

// Batch facade: a StreamingSimulation on DefaultGenerateWorkers() threads
// whose constructor runs it, so batch == streaming holds by construction.
// The constructor validates `config` before building anything
// (std::invalid_argument with the validator's message) and throws
// UnrecoverableFaultError for a schedule carrying a kUnrecoverable event.
// Every accessor is valid once the constructor returns; AddSink and Run
// throw std::logic_error, since the run has already happened.
class EbsSimulation : public StreamingSimulation {
 public:
  explicit EbsSimulation(SimulationConfig config = DcPreset(1));
};

}  // namespace ebs

#endif  // SRC_CORE_SIMULATION_H_
