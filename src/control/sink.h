// ControlSink: the control plane's tap at the replay engine's merge point.
//
// Runs on the merge thread like every sink. Steps inside a period return at
// once; at each complete period's last step the sink sweeps the period's
// full-scale columns (offered per-VD load, per-segment traffic) into
// per-period totals, row by row — every column <= the view's step is final,
// and the view's vectors stay alive until OnFinish (ReplayStepView). It then
// settles the queueing model to the boundary's virtual time (AdvanceTo),
// assembles a ControlSignal, and hands it to the ControlLoop — whose decisions
// actuate the mitigation sinks for the steps that follow.
//
// Registration order matters and is part of the determinism contract: the
// control sink must run AFTER the sinks it actuates (lending, cache, qmodel,
// WT-CoV), so that at a boundary after step t every sink has finished
// processing t, and every actuation takes effect from step t+1 — the first
// step of the next period — in batch and streaming alike.
//
// A trailing partial period is never swept and never decides: only complete
// periods are evaluated, so the decision log does not depend on whether the
// window divides evenly.

#ifndef SRC_CONTROL_SINK_H_
#define SRC_CONTROL_SINK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/control/loop.h"
#include "src/control/signal.h"
#include "src/fault/driver.h"
#include "src/hypervisor/online_balance.h"
#include "src/qmodel/sink.h"
#include "src/replay/sink.h"

namespace ebs {
namespace control {

class ControlSink : public ReplaySink {
 public:
  // `loop` is required; the rest are signal sources and may be nullptr:
  // `qmodel` feeds the SLO/P99 signal (and is settled via AdvanceTo at each
  // boundary), `wt_cov` feeds the imbalance signal. None are owned.
  ControlSink(ControlLoop* loop, qmodel::QueueModelSink* qmodel, OnlineWtCovSink* wt_cov);

  // Down-BS signal source; nullptr on healthy runs. Not owned.
  void set_fault_driver(const FaultDriver* driver) { fault_driver_ = driver; }

  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnStepComplete(const ReplayStepView& view) override;

  uint64_t periods_evaluated() const { return loop_->periods_evaluated(); }

 private:
  ControlLoop* loop_;
  qmodel::QueueModelSink* qmodel_;
  OnlineWtCovSink* wt_cov_;
  const FaultDriver* fault_driver_ = nullptr;

  const Fleet* fleet_ = nullptr;
  double step_seconds_ = 1.0;
  uint32_t period_steps_ = 1;
  uint32_t period_ = 0;
  uint32_t period_begin_step_ = 0;
  uint64_t prev_slo_violations_ = 0;

  std::vector<double> vd_offered_acc_;                      // by VD id, this period
  std::vector<std::pair<uint32_t, double>> segment_bytes_;  // scratch for the signal
  std::vector<uint32_t> down_bs_;                           // scratch for the signal
};

}  // namespace control
}  // namespace ebs

#endif  // SRC_CONTROL_SINK_H_
