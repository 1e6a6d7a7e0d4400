#include "src/control/sink.h"

#include <algorithm>

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
  segment_acc_.clear();
  loop_->OnRunStart();
}

void ControlSink::OnStepComplete(const ReplayStepView& view) {
  const size_t step = view.step;
  for (size_t vd = 0; vd < view.offered_vd.size(); ++vd) {
    const RwSeries& series = view.offered_vd[vd];
    vd_offered_acc_[vd] += series.read_bytes[step] + series.write_bytes[step];
  }
  // The segment entries are fixed (ascending id) for the whole run, so a
  // vector parallel to them accumulates without lookups. Each cell is read
  // from its VD's delivered column times the segment's weight.
  const SegmentSeriesMap& segments = view.segments;
  if (segment_acc_.size() < segments.size()) {
    segment_acc_.resize(segments.size(), 0.0);
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentView segment = segments[i];
    segment_acc_[i] += segment.Bytes(OpType::kRead, step) + segment.Bytes(OpType::kWrite, step);
  }

  if ((step + 1 - period_begin_step_) < period_steps_) {
    return;  // period still open; a trailing partial period never decides
  }

  ControlSignal signal;
  signal.period = period_;
  signal.step_begin = period_begin_step_;
  signal.step_end = static_cast<uint32_t>(step + 1);
  signal.step_seconds = step_seconds_;
  signal.vd_offered_bytes = &vd_offered_acc_;

  segment_bytes_.clear();
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segment_acc_[i] > 0.0) {
      segment_bytes_.emplace_back(segments[i].id, segment_acc_[i]);
    }
  }
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
  std::fill(vd_offered_acc_.begin(), vd_offered_acc_.end(), 0.0);
  std::fill(segment_acc_.begin(), segment_acc_.end(), 0.0);
}

}  // namespace control
}  // namespace ebs
