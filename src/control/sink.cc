#include "src/control/sink.h"

namespace ebs {
namespace control {

ControlSink::ControlSink(ControlLoop* loop, qmodel::QueueModelSink* qmodel,
                         OnlineWtCovSink* wt_cov)
    : loop_(loop), qmodel_(qmodel), wt_cov_(wt_cov) {}

void ControlSink::OnStart(const Fleet& fleet, size_t /*window_steps*/,
                          double step_seconds) {
  fleet_ = &fleet;
  step_seconds_ = step_seconds;
  period_steps_ = loop_->config().period_steps;
  period_ = 0;
  period_begin_step_ = 0;
  prev_slo_violations_ = 0;
  vd_offered_acc_.assign(fleet.vds.size(), 0.0);
  loop_->OnRunStart();
}

void ControlSink::OnStepComplete(const ReplayStepView& view) {
  const size_t step = view.step;
  if ((step + 1 - period_begin_step_) < period_steps_) {
    return;  // period still open; a trailing partial period never decides
  }

  // Every column of the period is final now (<= view.step), so each row is
  // swept once, front to back. Each total starts at 0.0 and adds read + write
  // in ascending step order; the decision-log goldens pin that order.
  const size_t begin = period_begin_step_;
  for (size_t vd = 0; vd < view.offered_vd.size(); ++vd) {
    const RwSeries& series = view.offered_vd[vd];
    double bytes = 0.0;
    for (size_t t = begin; t <= step; ++t) {
      bytes += series.read_bytes[t] + series.write_bytes[t];
    }
    vd_offered_acc_[vd] = bytes;
  }
  // Each segment cell is read from its VD's delivered column times the
  // segment's weight; the entries are in ascending id order.
  segment_bytes_.clear();
  const SegmentSeriesMap& segments = view.segments;
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentView segment = segments[i];
    double bytes = 0.0;
    for (size_t t = begin; t <= step; ++t) {
      bytes += segment.Bytes(OpType::kRead, t) + segment.Bytes(OpType::kWrite, t);
    }
    if (bytes > 0.0) {
      segment_bytes_.emplace_back(segment.id, bytes);
    }
  }

  ControlSignal signal;
  signal.period = period_;
  signal.step_begin = period_begin_step_;
  signal.step_end = static_cast<uint32_t>(step + 1);
  signal.step_seconds = step_seconds_;
  signal.vd_offered_bytes = &vd_offered_acc_;
  signal.segment_bytes = &segment_bytes_;

  down_bs_.clear();
  if (fault_driver_ != nullptr && fault_driver_->armed()) {
    for (uint32_t bs = 0; bs < fleet_->block_servers.size(); ++bs) {
      if (fault_driver_->BlockServerDown(step, BlockServerId(bs))) {
        down_bs_.push_back(bs);
      }
    }
  }
  signal.down_bs = &down_bs_;

  if (wt_cov_ != nullptr) {
    signal.wt_cov = wt_cov_->LatestWindowMeanCov();
  }

  if (qmodel_ != nullptr) {
    if (qmodel::QueueSimulator* simulator = qmodel_->simulator()) {
      // Settle the queueing model to this boundary's virtual time so the
      // interim counters cover exactly the completed periods. Legal because
      // the event heap's total order fixes processing order regardless of
      // when the drain happens.
      simulator->AdvanceTo(static_cast<double>(step + 1) * step_seconds_ * 1e6);
      const qmodel::QueueInterimStats interim = simulator->Interim();
      signal.qmodel.enabled = true;
      signal.qmodel.events = interim.events;
      signal.qmodel.slo_violations = interim.slo_violations;
      signal.qmodel.slo_violations_delta = interim.slo_violations - prev_slo_violations_;
      signal.qmodel.overflows = interim.overflows;
      signal.qmodel.p99_us = interim.p99_us;
      prev_slo_violations_ = interim.slo_violations;
    }
  }

  loop_->OnPeriod(signal);

  ++period_;
  period_begin_step_ = static_cast<uint32_t>(step + 1);
}

}  // namespace control
}  // namespace ebs
