#include "src/hypervisor/online_balance.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/stats.h"

namespace ebs {

OnlineWtCovSink::OnlineWtCovSink(OpType op, size_t cov_window_steps)
    : op_(op), cov_window_steps_(cov_window_steps) {
  if (cov_window_steps_ == 0) {
    throw std::invalid_argument("wt-cov: cov_window_steps must be >= 1");
  }
}

void OnlineWtCovSink::OnStart(const Fleet& fleet, size_t /*window_steps*/,
                              double /*step_seconds*/) {
  fleet_ = &fleet;
  degraded_steps_seen_ = 0;
  window_acc_.assign(fleet.wts.size(), 0.0);
  step_total_.assign(fleet.wts.size(), 0.0);
  per_node_.assign(fleet.nodes.size(), {});
  samples_.clear();
  latest_window_mean_cov_ = 0.0;
  complete_windows_ = 0;
}

void OnlineWtCovSink::OnStepComplete(const ReplayStepView& view) {
  obs::ScopedTimer timer(step_timer_);
  if (fault_driver_ != nullptr && fault_driver_->StepDegraded(view.step)) {
    ++degraded_steps_seen_;  // samples below are fault-immune; just flag it
  }
  // Two-stage accumulation keeps the FP addition order of a WT rollup: QPs
  // fold (fleet order) into the per-step WT value first, then steps fold into
  // the window in ascending order.
  std::fill(step_total_.begin(), step_total_.end(), 0.0);
  for (const Qp& qp : fleet_->qps) {
    step_total_[qp.bound_wt.value()] += view.qp_series[qp.id.value()].Bytes(op_)[view.step];
  }
  for (size_t w = 0; w < window_acc_.size(); ++w) {
    window_acc_[w] += step_total_[w];
  }

  if ((view.step + 1) % cov_window_steps_ != 0) {
    return;
  }
  double window_cov_sum = 0.0;
  size_t window_cov_count = 0;
  for (const ComputeNode& node : fleet_->nodes) {
    std::vector<double> totals;
    totals.reserve(node.wts.size());
    double node_total = 0.0;
    for (const WorkerThreadId wt : node.wts) {
      totals.push_back(window_acc_[wt.value()]);
      node_total += window_acc_[wt.value()];
    }
    if (node_total > 0.0) {
      const double cov = NormalizedCoV(totals);
      per_node_[node.id.value()].push_back(cov);
      window_cov_sum += cov;
      ++window_cov_count;
    }
  }
  latest_window_mean_cov_ =
      window_cov_count > 0 ? window_cov_sum / static_cast<double>(window_cov_count) : 0.0;
  ++complete_windows_;
  std::fill(window_acc_.begin(), window_acc_.end(), 0.0);
}

void OnlineWtCovSink::OnFinish() {
  // Node-major concatenation: every window of node 0, then node 1, ...
  samples_.clear();
  for (const std::vector<double>& node_samples : per_node_) {
    samples_.insert(samples_.end(), node_samples.begin(), node_samples.end());
  }
}

}  // namespace ebs
