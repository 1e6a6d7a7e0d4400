#include "src/fault/driver.h"

#include <algorithm>

namespace ebs {

namespace {

// Microseconds one network-hiccup severity unit adds to each network leg.
constexpr double kNetworkHiccupBaseUs = 50.0;

}  // namespace

FaultDriver::FaultDriver(const Fleet& fleet, const FaultSchedule& schedule, size_t window_steps,
                         double step_seconds)
    : fleet_(fleet),
      retry_(schedule.retry),
      window_steps_(std::max<size_t>(1, window_steps)),
      step_seconds_(step_seconds > 0.0 ? step_seconds : 1.0),
      armed_(!schedule.events.empty()),
      unrecoverable_step_(window_steps_) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs_retries_ = registry.GetCounter("fault.retries");
  obs_timeouts_ = registry.GetCounter("fault.timeouts");
  obs_failovers_ = registry.GetCounter("fault.failovers");
  obs_slowed_ = registry.GetCounter("fault.cs_slowed_ios");
  obs_hiccuped_ = registry.GetCounter("fault.net_hiccup_ios");
  if (!armed_) {
    step_active_.assign(window_steps_, 0);
    return;
  }
  ValidateSchedule(schedule, fleet, window_steps);

  bs_down_.resize(fleet.block_servers.size());
  cs_slow_.resize(fleet.storage_nodes.size());
  net_hiccup_.resize(fleet.storage_clusters.size());
  step_active_.assign(window_steps_, 0);

  for (const FaultEvent& event : schedule.events) {
    const Interval interval{event.start_step, event.end_step, event.severity};
    switch (event.type) {
      case FaultType::kBlockServerCrash:
        bs_down_[event.target].push_back(interval);
        break;
      case FaultType::kChunkServerSlowdown:
        cs_slow_[event.target].push_back(interval);
        break;
      case FaultType::kSegmentUnavailable:
        if (seg_unavail_.empty()) {
          seg_unavail_.resize(fleet.segments.size());
        }
        seg_unavail_[event.target].push_back(interval);
        any_seg_unavail_ = true;
        break;
      case FaultType::kNetworkHiccup:
        if (event.target == kAllClusters) {
          for (auto& per_cluster : net_hiccup_) {
            per_cluster.push_back(interval);
          }
        } else {
          net_hiccup_[event.target].push_back(interval);
        }
        break;
      case FaultType::kUnrecoverable:
        unrecoverable_step_ = std::min(unrecoverable_step_, event.start_step);
        continue;  // aborts the run; not a degraded-state window
    }
    for (size_t t = event.start_step; t < std::min(event.end_step, window_steps_); ++t) {
      step_active_[t] = 1;
    }
  }
  for (const uint8_t active : step_active_) {
    degraded_step_count_ += active;
  }

  // Failover attempt order, built only for segments that can actually lose
  // their primary (segments of a BS with a crash window).
  failover_ring_.resize(fleet.segments.size());
  FailoverPlanner planner(fleet);
  for (uint32_t bs = 0; bs < bs_down_.size(); ++bs) {
    if (bs_down_[bs].empty()) {
      continue;
    }
    for (const SegmentId seg : fleet.block_servers[bs].segments) {
      failover_ring_[seg.value()] = planner.Candidates(seg);
    }
  }
}

const FaultDriver::Interval* FaultDriver::ActiveAt(const std::vector<Interval>& intervals,
                                                   size_t step) {
  for (const Interval& interval : intervals) {
    if (step >= interval.start && step < interval.end) {
      return &interval;
    }
  }
  return nullptr;
}

bool FaultDriver::BlockServerDown(size_t step, BlockServerId bs) const {
  if (bs_down_.empty()) {
    return false;
  }
  return ActiveAt(bs_down_[bs.value()], step) != nullptr;
}

double FaultDriver::ChunkServerSlowdown(size_t step, StorageNodeId sn) const {
  if (cs_slow_.empty()) {
    return 1.0;
  }
  double multiplier = 1.0;
  for (const Interval& interval : cs_slow_[sn.value()]) {
    if (step >= interval.start && step < interval.end) {
      multiplier = std::max(multiplier, interval.severity);
    }
  }
  return multiplier;
}

bool FaultDriver::SegmentUnavailable(size_t step, SegmentId segment) const {
  if (!any_seg_unavail_) {
    return false;
  }
  return ActiveAt(seg_unavail_[segment.value()], step) != nullptr;
}

double FaultDriver::NetworkHiccupUs(size_t step, StorageClusterId cluster) const {
  if (net_hiccup_.empty()) {
    return 0.0;
  }
  double severity = 0.0;
  for (const Interval& interval : net_hiccup_[cluster.value()]) {
    if (step >= interval.start && step < interval.end) {
      severity = std::max(severity, interval.severity);
    }
  }
  return severity * kNetworkHiccupBaseUs;
}

void FaultDriver::CheckUnrecoverable(size_t step) const {
  if (step >= unrecoverable_step_) {
    throw UnrecoverableFaultError(unrecoverable_step_);
  }
}

void FaultDriver::Apply(TraceRecord* record, FaultStats* stats) const {
  ++stats->issued;
  const size_t step = StepIndex(static_cast<size_t>(record->timestamp / step_seconds_));
  if (step_active_[step] == 0) {
    ++stats->completed;
    return;
  }

  // Availability resolution first: it fixes the (BS, SN) the latency-shaping
  // faults then act on. The attempt order is the precomputed static ring, so
  // a larger down-set can only fail more attempts (monotone retries).
  int failed_attempts = 0;
  bool timed_out = false;
  bool failed_over = false;
  if (SegmentUnavailable(step, record->segment)) {
    // Replica loss: no BS can serve the segment; every attempt burns out.
    failed_attempts = retry_.max_attempts;
    timed_out = true;
  } else if (BlockServerDown(step, record->bs)) {
    failed_attempts = 1;  // the primary attempt
    const std::vector<BlockServerId>& ring = failover_ring_[record->segment.value()];
    for (size_t i = 0; i < ring.size() && failed_attempts < retry_.max_attempts; ++i) {
      if (BlockServerDown(step, ring[i])) {
        ++failed_attempts;
        continue;
      }
      record->bs = ring[i];
      record->sn = fleet_.block_servers[ring[i].value()].node;
      failed_over = true;
      break;
    }
    if (!failed_over) {
      failed_attempts = retry_.max_attempts;  // kept retrying until the budget died
      timed_out = true;
    }
  }

  if (failed_attempts > 0) {
    // The wait happened at the BlockServer hop: attempt timeouts + backoff.
    record->latency.component_us[static_cast<int>(StackComponent::kBlockServer)] +=
        RetryPenaltyUs(retry_, failed_attempts);
    record->fault_retries = static_cast<uint8_t>(std::min(failed_attempts, 255));
    stats->retries += static_cast<uint64_t>(failed_attempts);
    obs_retries_->Add(static_cast<uint64_t>(failed_attempts));
  }
  if (failed_over) {
    record->fault_failed_over = true;
    ++stats->failovers;
    obs_failovers_->Increment();
  }

  // Latency shaping on the surviving path. A timed-out IO never reached the
  // ChunkServer, so brownouts do not stretch it further; its network legs
  // were traversed on every attempt, so hiccups still apply.
  if (!timed_out) {
    const double multiplier = ChunkServerSlowdown(step, record->sn);
    if (multiplier > 1.0) {
      ApplyChunkServerSlowdown(&record->latency, multiplier);
      ++stats->slowed;
      obs_slowed_->Increment();
    }
  }
  const StorageClusterId cluster = fleet_.block_servers[record->bs.value()].cluster;
  const double hiccup_us = NetworkHiccupUs(step, cluster);
  if (hiccup_us > 0.0) {
    ApplyNetworkHiccup(&record->latency, hiccup_us);
    ++stats->hiccuped;
    obs_hiccuped_->Increment();
  }

  if (timed_out) {
    record->fault_timed_out = true;
    ++stats->timed_out;
    obs_timeouts_->Increment();
  } else {
    ++stats->completed;
  }
}

}  // namespace ebs
