// ControlPlane: one bundle owning the mitigation sinks the closed loop
// actuates plus the loop and its ControlSink tap, wired and ordered.
//
// Registration order (the determinism contract's sink order):
//   lending -> cache -> wt-cov -> control
// so every actuated sink has finished the boundary step before the control
// sink evaluates it, and every actuation governs the next period's steps. The
// qmodel sink, when queueing is enabled, is owned by the facade and must be
// registered BEFORE these four (pass it to the constructor so the loop can
// actuate its remap table and the tap can read its interim counters).

#ifndef SRC_CONTROL_PLANE_H_
#define SRC_CONTROL_PLANE_H_

#include <vector>

#include "src/cache/online_hotspot.h"
#include "src/control/loop.h"
#include "src/control/policies.h"
#include "src/control/sink.h"
#include "src/hypervisor/online_balance.h"
#include "src/qmodel/sink.h"
#include "src/throttle/online_lending.h"
#include "src/throttle/throttle.h"
#include "src/topology/fleet.h"

namespace ebs {
namespace control {

class ControlPlane {
 public:
  // `qmodel` may be nullptr (no queueing); not owned, must outlive the plane.
  ControlPlane(const Fleet& fleet, const ControlConfig& config,
               qmodel::QueueModelSink* qmodel);

  // The plane's sinks in registration order; append to the engine's chain
  // after the qmodel sink.
  std::vector<ReplaySink*> Sinks();

  // Down-BS signal source for the fault-response policy; nullptr on healthy
  // runs. Store replay has no engine driver — the facade builds one from the
  // workload's schedule so crash-heavy store replay stays log-identical.
  void set_fault_driver(const FaultDriver* driver);

  const ControlLoop& loop() const { return loop_; }
  const DecisionLog& log() const { return loop_.log(); }
  OnlineLendingSink& lending() { return lending_; }
  const OnlineLendingSink& lending() const { return lending_; }
  OnlineCacheSink& cache() { return cache_; }
  OnlineWtCovSink& wt_cov() { return wt_cov_; }
  const OnlineWtCovSink& wt_cov() const { return wt_cov_; }

 private:
  OnlineLendingSink lending_;
  OnlineCacheSink cache_;
  OnlineWtCovSink wt_cov_;
  ControlLoop loop_;
  ControlSink sink_;
};

}  // namespace control
}  // namespace ebs

#endif  // SRC_CONTROL_PLANE_H_
