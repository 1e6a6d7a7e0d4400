// Online limited-lending throttler (§5, Appendix B) for the replay engine.
//
// OnlineLendingSink runs Algorithm 2 period by period as the stream plays.
// Steps inside a period only mark themselves pending; at each period's last
// step the sink steps every sharing group through the pending columns of the
// offered per-VD load (periodic cap reset, first-throttle lending, throttle
// counters), group by group — groups share no state, and every column <= the
// view's step is final. It keeps a pointer to the view's offered_vd for the
// flushes SetLendingRate and OnFinish make, which the ReplayStepView contract
// keeps valid until OnFinish. Per-group lending gains are reported at the
// end. It is the only implementation of Algorithm 2: the batch
// SimulateLending steps this sink over a materialized offered_vd.

#ifndef SRC_THROTTLE_ONLINE_LENDING_H_
#define SRC_THROTTLE_ONLINE_LENDING_H_

#include <cstdint>
#include <vector>

#include "src/fault/driver.h"
#include "src/obs/metrics.h"
#include "src/replay/sink.h"
#include "src/throttle/throttle.h"
#include "src/topology/fleet.h"

namespace ebs {

class OnlineLendingSink : public ReplaySink {
 public:
  // Throws std::invalid_argument when config.period_steps is 0, when
  // config.lending_rate is outside [0, 1] (or NaN), or when config.cap_scale
  // is not finite and positive.
  OnlineLendingSink(std::vector<SharingGroup> groups, ThrottleConfig config);

  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnStepComplete(const ReplayStepView& view) override;
  void OnFinish() override;

  // One gain per group with any throttling, in group order — what
  // SimulateLending(fleet, offered_vd, groups, config) returns. Valid after
  // OnFinish, like the throttle counts (before it they cover the completed
  // periods only).
  const std::vector<double>& gains() const { return gains_; }
  uint64_t baseline_throttled_seconds() const;
  uint64_t lending_throttled_seconds() const;

  // Degraded-mode fallback: throttling caps are enforced on the compute side,
  // before any IO meets the faulty storage path, and the offered-load columns
  // the algorithm reads are full-scale metric data that faults do not alter —
  // so the math runs unchanged through degraded periods. The sink only keeps
  // count of the steps it processed while the fleet was degraded, for
  // operators correlating lending decisions with incidents. `driver` is not
  // owned and may be nullptr (healthy run).
  void set_fault_driver(const FaultDriver* driver) { fault_driver_ = driver; }
  uint64_t degraded_steps_seen() const { return degraded_steps_seen_; }

  // Closed-loop actuation hook: replaces Algorithm 2's lending rate p for
  // every step completed from now on. Steps already completed but still
  // pending run under the old rate first, so a rate set at a period boundary
  // (the control plane runs after this sink in the chain) governs exactly the
  // whole next period. Clamped to [0, 1] — p outside that range has no
  // meaning in Algorithm 2; NaN throws std::invalid_argument.
  void SetLendingRate(double p);
  double lending_rate() const { return config_.lending_rate; }

 private:
  struct Usage {
    double read_bytes = 0.0;
    double write_bytes = 0.0;
    double read_ops = 0.0;
    double write_ops = 0.0;
    double Bytes() const { return read_bytes + write_bytes; }
    double Ops() const { return read_ops + write_ops; }
  };
  struct GroupState {
    std::vector<StepCaps> base_caps;
    std::vector<StepCaps> caps;  // current (possibly lent) caps
    bool lent_this_period = false;
    uint64_t baseline_throttled = 0;
    uint64_t lending_throttled = 0;
  };

  // Runs every group through the pending steps [pending_begin_, pending_end_).
  void Flush();
  // One step of Algorithm 2 for group g.
  void StepGroup(size_t g, size_t t);

  std::vector<SharingGroup> groups_;
  ThrottleConfig config_;

  const FaultDriver* fault_driver_ = nullptr;
  uint64_t degraded_steps_seen_ = 0;
  std::vector<GroupState> state_;
  std::vector<Usage> usage_;  // one group's usage at one step; scratch
  const std::vector<RwSeries>* offered_ = nullptr;  // the view's offered_vd
  size_t pending_begin_ = 0;  // first completed step Algorithm 2 has not run
  size_t pending_end_ = 0;    // one past the last completed step
  std::vector<double> gains_;
  obs::ObsHistogram* step_timer_ = obs::MetricRegistry::Global().GetTimer("sink.lending.step");
};

}  // namespace ebs

#endif  // SRC_THROTTLE_ONLINE_LENDING_H_
