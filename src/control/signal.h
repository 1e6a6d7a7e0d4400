// ControlSignal: the per-period observation snapshot ControlPlane assembles at
// each complete period's last step and hands to its policies.
//
// Every field is a pure function of simulated state — full-scale metric
// columns the step views expose, the fault schedule's step-indexed tables,
// and the qmodel's virtual-time counters. Nothing here may come from a wall
// clock, an RNG, or an unordered-container walk (the ebs_lint
// control-determinism rule bans those outright for src/control/), which is
// what makes every decision derived from a signal bit-identical across
// batch/streaming, worker counts, and fault schedules.

#ifndef SRC_CONTROL_SIGNAL_H_
#define SRC_CONTROL_SIGNAL_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace ebs {
namespace control {

// Interim qmodel readout at a period boundary; zeros when queueing is off.
struct QmodelSignal {
  bool enabled = false;
  uint64_t events = 0;
  uint64_t slo_violations = 0;        // cumulative
  uint64_t slo_violations_delta = 0;  // this period
  uint64_t overflows = 0;             // cumulative sheds
  double p99_us = 0.0;                // of all completions so far
};

// One control period's observations. The vectors are owned by the producer
// (ControlPlane, or a test's hand signal) and valid only during the OnPeriod
// call.
struct ControlSignal {
  uint32_t period = 0;       // 0-based control period index
  uint32_t step_begin = 0;   // first step of the period
  uint32_t step_end = 0;     // one past the last step of the period
  double step_seconds = 1.0;

  // Observed WT imbalance: mean normalized CoV across nodes for the window
  // that closed at this boundary (OnlineWtCovSink::LatestWindowMeanCov; 0
  // when no CoV sink is wired or the window carried no traffic).
  double wt_cov = 0.0;

  // Per-VD *offered* (pre-throttle) bytes this period, indexed by VD id.
  const std::vector<double>* vd_offered_bytes = nullptr;

  // Per-segment delivered bytes this period: (segment id, bytes) in ascending
  // segment-id order, active segments only.
  const std::vector<std::pair<uint32_t, double>>* segment_bytes = nullptr;

  // Block servers down at the period's closing step, ascending id. Empty on
  // healthy runs and on store replay without a schedule.
  const std::vector<uint32_t>* down_bs = nullptr;

  QmodelSignal qmodel;
};

}  // namespace control
}  // namespace ebs

#endif  // SRC_CONTROL_SIGNAL_H_
