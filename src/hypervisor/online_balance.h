// Online WT-balance observation (§4.1) for the replay engine.
//
// OnlineWtCovSink emits one normalized-CoV sample per (node, complete window)
// with traffic as the stream plays, without ever holding the full per-WT
// rollup. Steps inside a window only count degraded steps; at a window's last
// step the sink folds the window's per-QP columns into per-WT totals, reading
// back to the window's first step — every column <= the view's step is final.
// A trailing partial window is never folded. It is the only implementation
// of the WT-CoV windows: the batch WtCovSamples steps this sink over a
// materialized MetricDataset.

#ifndef SRC_HYPERVISOR_ONLINE_BALANCE_H_
#define SRC_HYPERVISOR_ONLINE_BALANCE_H_

#include <cstdint>
#include <vector>

#include "src/fault/driver.h"
#include "src/obs/metrics.h"
#include "src/replay/sink.h"
#include "src/topology/fleet.h"

namespace ebs {

class OnlineWtCovSink : public ReplaySink {
 public:
  // `cov_window_steps` is the CoV time scale (e.g. 60 for 1-minute CoV).
  // Throws std::invalid_argument when it is 0.
  OnlineWtCovSink(OpType op, size_t cov_window_steps);

  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  // Folds and samples the window that closes at view.step; other steps only
  // count degraded steps.
  void OnStepComplete(const ReplayStepView& view) override;
  void OnFinish() override;

  // One sample per (node, complete window) with traffic, node-major — what
  // WtCovSamples(fleet, metrics, op, cov_window_steps) returns. Valid after
  // OnFinish (a trailing partial window is discarded).
  const std::vector<double>& samples() const { return samples_; }

  // Degraded-mode fallback: the per-QP columns this sink reads are full-scale
  // metric data, which faults never alter, so the CoV samples are identical
  // on degraded runs. The sink only counts the degraded steps it saw.
  // `driver` is not owned and may be nullptr.
  void set_fault_driver(const FaultDriver* driver) { fault_driver_ = driver; }
  uint64_t degraded_steps_seen() const { return degraded_steps_seen_; }

  // Closed-loop signal hook: mean normalized CoV across the nodes of the most
  // recently completed CoV window, or 0 before the first complete window.
  // Updated at window boundaries inside OnStepComplete, so the control plane
  // running later in the chain reads the window that just closed.
  double LatestWindowMeanCov() const { return latest_window_mean_cov_; }
  uint64_t complete_windows() const { return complete_windows_; }

 private:
  // Folds the window closing at view.step into window_acc_.
  void FoldWindow(const ReplayStepView& view);

  OpType op_;
  size_t cov_window_steps_;

  const Fleet* fleet_ = nullptr;
  const FaultDriver* fault_driver_ = nullptr;
  uint64_t degraded_steps_seen_ = 0;
  std::vector<uint32_t> wt_qp_begin_;  // by WT id: its first entry in wt_qps_
  std::vector<uint32_t> wt_qps_;       // QP ids grouped by WT, fleet order within
  std::vector<double> window_acc_;     // per-WT bytes of the window being sampled
  std::vector<double> step_totals_;    // one WT's bytes per step of that window
  std::vector<std::vector<double>> per_node_;  // samples grouped by node
  std::vector<double> samples_;
  double latest_window_mean_cov_ = 0.0;
  uint64_t complete_windows_ = 0;
  obs::ObsHistogram* step_timer_ = obs::MetricRegistry::Global().GetTimer("sink.wt_cov.step");
};

}  // namespace ebs

#endif  // SRC_HYPERVISOR_ONLINE_BALANCE_H_
