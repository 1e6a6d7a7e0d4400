// FaultDriver: the deterministic interpreter of a FaultSchedule.
//
// The driver precomputes, per step, which components are degraded, and
// applies fault effects to sampled IO records as a pure function of
// (schedule, fleet, record): no RNG, no mutable state, no dependence on call
// order. Each replay shard applies it to the records it generates; the
// transform commutes with any partition of the records, so the stream does
// not depend on the worker count.
//
// Availability resolution per IO: the attempt sequence is fixed up front as
// [primary BS, FailoverCandidates(fleet, segment)...]. Attempt i fails iff
// its BS is crashed at the IO's step (or the segment itself is unavailable,
// which fails every attempt). The IO completes on the first healthy candidate
// within RetryPolicy::max_attempts, paying RetryPenaltyUs for the failed
// attempts, or times out. Because the candidate order never depends on which
// BSs are down, a larger down-set can only fail more attempts — retry counts
// are monotone in failure density, an invariant the property suite checks.

#ifndef SRC_FAULT_DRIVER_H_
#define SRC_FAULT_DRIVER_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/fault/schedule.h"
#include "src/obs/metrics.h"
#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

// Thrown by generation when the schedule's kUnrecoverable step is reached.
// The replay engine's abort path must drain every worker without deadlock.
class UnrecoverableFaultError : public std::runtime_error {
 public:
  explicit UnrecoverableFaultError(size_t step)
      : std::runtime_error("fault: unrecoverable error injected at step " +
                           std::to_string(step)),
        step_(step) {}
  size_t step() const { return step_; }

 private:
  size_t step_;
};

// Thread-safety: immutable after construction. Every table is fully built in
// the constructor and all public methods are const reads, so replay shards
// share one driver concurrently without locks — keep it that way (a mutable
// member here would need EBS_GUARDED_BY and would serialize the shards).
class FaultDriver {
 public:
  // Validates the schedule against the fleet (throws std::invalid_argument on
  // a malformed schedule). The driver keeps references to the fleet; both
  // must outlive it.
  FaultDriver(const Fleet& fleet, const FaultSchedule& schedule, size_t window_steps,
              double step_seconds);

  // True when the schedule has at least one event. Consumers must skip the
  // fault layer entirely when unarmed — the empty-schedule identity contract.
  bool armed() const { return armed_; }

  // --- Step-indexed state -------------------------------------------------
  bool StepDegraded(size_t step) const { return step_active_[StepIndex(step)] != 0; }
  bool BlockServerDown(size_t step, BlockServerId bs) const;
  // 1.0 when healthy; the slowdown multiplier otherwise.
  double ChunkServerSlowdown(size_t step, StorageNodeId sn) const;
  bool SegmentUnavailable(size_t step, SegmentId segment) const;
  // 0.0 when healthy; extra microseconds added to each network leg otherwise.
  double NetworkHiccupUs(size_t step, StorageClusterId cluster) const;
  // Window step the first kUnrecoverable event fires at, or window_steps.
  size_t unrecoverable_step() const { return unrecoverable_step_; }
  // Steps with >= 1 active fault over the whole window.
  uint64_t DegradedStepCount() const { return degraded_step_count_; }

  // Throws UnrecoverableFaultError when `step` has reached the scheduled
  // unrecoverable event. Generation calls this once per step.
  void CheckUnrecoverable(size_t step) const;

  // --- Per-IO application -------------------------------------------------
  // Applies every active fault to one sampled IO in place: latency stretch
  // for slowdowns/hiccups, retry/backoff/timeout accounting and BS failover
  // for availability faults. Accumulates into `stats` (caller-owned; shard
  // tallies sum to the batch totals). Thread-safe: const, no driver mutation.
  void Apply(TraceRecord* record, FaultStats* stats) const;

  const RetryPolicy& retry_policy() const { return retry_; }

 private:
  struct Interval {
    size_t start = 0;
    size_t end = 0;
    double severity = 1.0;
  };
  // Per-target interval lists, indexed by the target id's value. Targets
  // without events hold empty vectors, so the common lookup is one empty()
  // check.
  using IntervalTable = std::vector<std::vector<Interval>>;

  size_t StepIndex(size_t step) const {
    return step < window_steps_ ? step : window_steps_ - 1;
  }
  static const Interval* ActiveAt(const std::vector<Interval>& intervals, size_t step);

  const Fleet& fleet_;
  RetryPolicy retry_;
  size_t window_steps_;
  double step_seconds_;
  bool armed_ = false;

  IntervalTable bs_down_;        // by BlockServerId
  IntervalTable cs_slow_;        // by StorageNodeId
  IntervalTable seg_unavail_;    // by SegmentId (allocated only when used)
  IntervalTable net_hiccup_;     // by StorageClusterId (kAllClusters expanded)
  std::vector<uint8_t> step_active_;  // any fault active at step
  size_t unrecoverable_step_;
  uint64_t degraded_step_count_ = 0;
  bool any_seg_unavail_ = false;

  // Failover attempt order per segment: the cluster's other BSs starting
  // after the primary in ring order, sibling-hosting BSs pushed to the back.
  std::vector<std::vector<BlockServerId>> failover_ring_;

  // Fault counters mirrored into the global registry (striped, thread-safe;
  // no-ops while the registry is disabled).
  obs::Counter* obs_retries_;
  obs::Counter* obs_timeouts_;
  obs::Counter* obs_failovers_;
  obs::Counter* obs_slowed_;
  obs::Counter* obs_hiccuped_;
};

}  // namespace ebs

#endif  // SRC_FAULT_DRIVER_H_
