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
  // Each WT's QPs in fleet order, as one CSR table.
  wt_qp_begin_.assign(fleet.wts.size() + 1, 0);
  for (const Qp& qp : fleet.qps) {
    ++wt_qp_begin_[qp.bound_wt.value() + 1];
  }
  for (size_t w = 0; w < fleet.wts.size(); ++w) {
    wt_qp_begin_[w + 1] += wt_qp_begin_[w];
  }
  wt_qps_.resize(fleet.qps.size());
  std::vector<uint32_t> cursor(wt_qp_begin_.begin(), wt_qp_begin_.end() - 1);
  for (const Qp& qp : fleet.qps) {
    wt_qps_[cursor[qp.bound_wt.value()]++] = qp.id.value();
  }
  window_acc_.assign(fleet.wts.size(), 0.0);
  per_node_.assign(fleet.nodes.size(), {});
  samples_.clear();
  latest_window_mean_cov_ = 0.0;
  complete_windows_ = 0;
}

void OnlineWtCovSink::FoldWindow(const ReplayStepView& view) {
  // Two-stage accumulation keeps the FP addition order of a WT rollup: a
  // WT's QPs fold (fleet order) into each step's WT total first, then the
  // steps fold into the window in ascending order. Every column of the
  // window is final (<= view.step), so each QP row is read once, front to
  // back, into the window's per-step totals.
  const size_t begin = view.step + 1 - cov_window_steps_;
  step_totals_.resize(cov_window_steps_);
  for (size_t w = 0; w < window_acc_.size(); ++w) {
    std::fill(step_totals_.begin(), step_totals_.end(), 0.0);
    for (uint32_t q = wt_qp_begin_[w]; q < wt_qp_begin_[w + 1]; ++q) {
      const TimeSeries& row = view.qp_series[wt_qps_[q]].Bytes(op_);
      for (size_t k = 0; k < step_totals_.size(); ++k) {
        step_totals_[k] += row[begin + k];
      }
    }
    double window_total = 0.0;
    for (const double step_total : step_totals_) {
      window_total += step_total;
    }
    window_acc_[w] = window_total;
  }
}

void OnlineWtCovSink::OnStepComplete(const ReplayStepView& view) {
  obs::ScopedTimer timer(step_timer_);
  if (fault_driver_ != nullptr && fault_driver_->StepDegraded(view.step)) {
    ++degraded_steps_seen_;  // samples below are fault-immune; just flag it
  }
  if ((view.step + 1) % cov_window_steps_ != 0) {
    return;  // window still open; a trailing partial window never samples
  }
  FoldWindow(view);

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
}

void OnlineWtCovSink::OnFinish() {
  // Node-major concatenation: every window of node 0, then node 1, ...
  samples_.clear();
  for (const std::vector<double>& node_samples : per_node_) {
    samples_.insert(samples_.end(), node_samples.begin(), node_samples.end());
  }
}

}  // namespace ebs
