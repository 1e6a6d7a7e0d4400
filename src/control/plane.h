// ControlPlane: the closed-loop control plane as one replay sink. It owns the
// mitigation sinks it actuates and the four policies, and closes each control
// period on the merge thread.
//
// Registration order (the determinism contract's sink order):
//   lending -> cache -> wt-cov -> plane
// so every actuated sink has finished the boundary step before the plane
// evaluates it, and every actuation governs the next period's steps. The
// qmodel sink, when queueing is enabled, is owned by the facade and must be
// registered BEFORE these four (pass it to the constructor so the plane can
// read its interim counters and actuate its remap table).
//
// Steps inside a period return at once. At each complete period's last step
// the plane sweeps the period's full-scale columns (offered per-VD load,
// per-segment traffic) into per-period totals, row by row: every column <=
// the view's step is final, and the view's vectors stay alive until OnFinish
// (ReplayStepView). It then settles the queueing model to the boundary's
// virtual time (AdvanceTo), assembles a ControlSignal and runs the enabled
// policies in a fixed order:
//   1. FaultResponsePolicy   (escalates pressure, evacuates crashed BSs)
//   2. MigrationPolicy       (predictor-driven segment migration)
//   3. LendingPolicy         (CoV-adaptive lending rate)
//   4. CacheAdmissionPolicy  (hotspot-gated cache admission)
// Each decision is appended to the DecisionLog and applied at once, in
// emission order, so it takes effect from the next period's first step. A
// trailing partial period is never swept and never decides, so the log does
// not depend on whether the window divides evenly. The log is fingerprinted
// (FNV-1a over every field in order): any change in what the plane decided,
// or when, changes the fingerprint.

#ifndef SRC_CONTROL_PLANE_H_
#define SRC_CONTROL_PLANE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/balancer/actuator.h"
#include "src/cache/online_hotspot.h"
#include "src/control/policies.h"
#include "src/control/policy.h"
#include "src/control/signal.h"
#include "src/fault/driver.h"
#include "src/hypervisor/online_balance.h"
#include "src/obs/metrics.h"
#include "src/qmodel/sink.h"
#include "src/replay/sink.h"
#include "src/throttle/online_lending.h"
#include "src/topology/fleet.h"

namespace ebs {
namespace control {

class ControlPlane : public ReplaySink {
 public:
  // `qmodel` may be nullptr (no queueing); not owned, must outlive the plane.
  ControlPlane(const Fleet& fleet, const ControlConfig& config,
               qmodel::QueueModelSink* qmodel);
  // The policies point at the plane's config and actuator: pin it.
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // The plane's sinks in registration order, the plane itself last; append
  // to the engine's chain after the qmodel sink.
  std::vector<ReplaySink*> Sinks();

  // Down-BS signal source for the fault-response policy; nullptr on healthy
  // runs. Store replay has no engine driver — the facade builds one from the
  // workload's schedule so crash-heavy store replay stays log-identical.
  void set_fault_driver(const FaultDriver* driver);

  // Resets the policies, the log and the period sweep.
  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnStepComplete(const ReplayStepView& view) override;

  // Evaluates the enabled policies over one period's signal, logging and
  // applying every decision in order.
  void OnPeriod(const ControlSignal& signal);

  const DecisionLog& log() const { return log_; }
  // Placement view: fleet placement + every applied evacuation/migration.
  const MigrationActuator& actuator() const { return actuator_; }
  uint64_t periods_evaluated() const { return periods_evaluated_; }
  // Token-conservation accounting: cumulative lending spend, always <= the
  // config's lending_budget (the property suite pins this).
  double lending_tokens_spent() const { return lending_policy_.tokens_spent(); }
  OnlineLendingSink& lending() { return lending_; }
  const OnlineLendingSink& lending() const { return lending_; }
  OnlineCacheSink& cache() { return cache_; }
  const OnlineCacheSink& cache() const { return cache_; }
  OnlineWtCovSink& wt_cov() { return wt_cov_; }
  const OnlineWtCovSink& wt_cov() const { return wt_cov_; }

 private:
  void Apply(const Decision& decision, size_t period);

  const Fleet& fleet_;
  const ControlConfig config_;
  qmodel::QueueModelSink* qmodel_;
  const FaultDriver* fault_driver_ = nullptr;
  OnlineLendingSink lending_;
  OnlineCacheSink cache_;
  OnlineWtCovSink wt_cov_;

  MigrationActuator actuator_;
  FaultResponsePolicy fault_response_;
  MigrationPolicy migration_;
  LendingPolicy lending_policy_;
  CacheAdmissionPolicy cache_admission_;
  DecisionLog log_;
  uint64_t periods_evaluated_ = 0;
  std::vector<Decision> scratch_;

  double step_seconds_ = 1.0;
  uint32_t period_begin_step_ = 0;
  uint64_t prev_slo_violations_ = 0;
  std::vector<double> vd_offered_acc_;                      // by VD id, this period
  std::vector<std::pair<uint32_t, double>> segment_bytes_;  // scratch for the signal
  std::vector<uint32_t> down_bs_;                           // scratch for the signal

  // Mirrored into the global registry for RunReport export; write-only from
  // the plane's perspective — decisions never read them back.
  obs::Counter* obs_periods_ = obs::MetricRegistry::Global().GetCounter("control.periods");
  obs::Counter* obs_decisions_ = obs::MetricRegistry::Global().GetCounter("control.decisions");
  obs::Counter* obs_migrations_ =
      obs::MetricRegistry::Global().GetCounter("control.migrations");
};

}  // namespace control
}  // namespace ebs

#endif  // SRC_CONTROL_PLANE_H_
