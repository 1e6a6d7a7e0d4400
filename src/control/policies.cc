#include "src/control/policies.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ebs {
namespace control {

namespace {

// Lending spends below this are treated as an exhausted budget (pure FP dust
// would otherwise emit a rate-change decision nobody can observe).
constexpr double kTokenEpsilon = 1e-9;

// Least-loaded healthy BS, lowest id on ties; returns loads.size() when no
// candidate is healthy (or only `exclude` is).
uint32_t LeastLoaded(const std::vector<double>& loads, const std::vector<uint8_t>& down,
                     uint32_t exclude) {
  uint32_t best = static_cast<uint32_t>(loads.size());
  for (uint32_t bs = 0; bs < loads.size(); ++bs) {
    if (down[bs] != 0 || bs == exclude) {
      continue;
    }
    if (best == loads.size() || loads[bs] < loads[best]) {
      best = bs;
    }
  }
  return best;
}

std::vector<uint8_t> DownMask(const ControlSignal& signal, size_t bs_count) {
  std::vector<uint8_t> down(bs_count, 0);
  if (signal.down_bs != nullptr) {
    for (const uint32_t bs : *signal.down_bs) {
      down[bs] = 1;
    }
  }
  return down;
}

}  // namespace

// --- FaultResponsePolicy ----------------------------------------------------

void FaultResponsePolicy::OnStart(const Fleet& fleet) {
  prev_down_.assign(fleet.block_servers.size(), 0);
}

void FaultResponsePolicy::Evaluate(const ControlSignal& signal, PeriodContext* context,
                                   std::vector<Decision>* out) {
  std::vector<uint8_t> down_now = DownMask(signal, prev_down_.size());
  const bool any_down = signal.down_bs != nullptr && !signal.down_bs->empty();
  if (!any_down) {
    prev_down_ = std::move(down_now);
    return;
  }

  // Escalate migration pressure for this period: the MigrationPolicy runs
  // next in the chain and reads the scaled budget/threshold.
  context->budget_scale = config_.crash_budget_boost;
  context->threshold_scale = config_.crash_threshold_relief;
  Decision pressure;
  pressure.period = signal.period;
  pressure.step = signal.step_end - 1;
  pressure.policy = id();
  pressure.action = ActionKind::kSetPressure;
  pressure.value = config_.crash_budget_boost;
  out->push_back(pressure);

  // Evacuate the active segments of every *newly* down BS onto the
  // least-loaded healthy servers (by this period's observed bytes, updated
  // live as segments land). Already-down servers were evacuated when they
  // crashed; idle segments carry no observed traffic to rebalance.
  std::vector<double> bs_bytes(prev_down_.size(), 0.0);
  for (const auto& [seg, bytes] : *signal.segment_bytes) {
    bs_bytes[actuator_->CurrentBs(SegmentId(seg)).value()] += bytes;
  }
  for (const auto& [seg, bytes] : *signal.segment_bytes) {
    const uint32_t from = actuator_->CurrentBs(SegmentId(seg)).value();
    if (down_now[from] == 0 || prev_down_[from] != 0) {
      continue;
    }
    const uint32_t to = LeastLoaded(bs_bytes, down_now, from);
    if (to == bs_bytes.size()) {
      break;  // no healthy destination exists; nothing to evacuate to
    }
    bs_bytes[to] += bytes;
    bs_bytes[from] -= bytes;
    Decision evacuate;
    evacuate.period = signal.period;
    evacuate.step = signal.step_end - 1;
    evacuate.policy = id();
    evacuate.action = ActionKind::kEvacuateSegment;
    evacuate.target = seg;
    evacuate.aux = to;
    evacuate.value = bytes;
    out->push_back(evacuate);
  }
  prev_down_ = std::move(down_now);
}

// --- MigrationPolicy --------------------------------------------------------

void MigrationPolicy::OnStart(const Fleet& fleet) {
  ewma_.assign(fleet.segments.size(), 0.0);
  seen_.assign(fleet.segments.size(), 0);
  distrust_.assign(fleet.segments.size(), 0);
  candidates_.assign(fleet.block_servers.size(), {});
  mispredictions_ = 0;
}

void MigrationPolicy::Evaluate(const ControlSignal& signal, PeriodContext* context,
                               std::vector<Decision>* out) {
  // 1. Misprediction feedback + forecast update over this period's actuals.
  // A segment whose last forecast missed by more than the tolerance is
  // distrusted for this round: its (evidently unstable) traffic is not acted
  // on until the EWMA re-converges. Idle segments keep their forecast.
  std::fill(distrust_.begin(), distrust_.end(), 0);
  for (const auto& [seg, bytes] : *signal.segment_bytes) {
    if (seen_[seg] != 0) {
      const double forecast = ewma_[seg];
      const double err = std::abs(bytes - forecast) / std::max(bytes, 1.0);
      if (err > config_.misprediction_tolerance) {
        distrust_[seg] = 1;
        ++mispredictions_;
      }
      ewma_[seg] = config_.ewma_alpha * bytes + (1.0 - config_.ewma_alpha) * ewma_[seg];
    } else {
      seen_[seg] = 1;
      ewma_[seg] = bytes;
    }
  }

  // 2. Predicted next-period load per BS under the control plane's current
  // assignment (fleet placement + applied migrations).
  std::vector<double> predicted = actuator_->BsLoads(ewma_);
  const std::vector<uint8_t> down = DownMask(signal, predicted.size());
  double total = 0.0;
  size_t healthy = 0;
  for (uint32_t bs = 0; bs < predicted.size(); ++bs) {
    if (down[bs] == 0) {
      total += predicted[bs];
      ++healthy;
    }
  }
  if (healthy < 2 || total <= 0.0) {
    return;
  }
  const double mean = total / static_cast<double>(healthy);
  const double threshold = config_.exporter_threshold * context->threshold_scale * mean;
  const double budget = config_.migration_budget * context->budget_scale * mean;

  // 3. Bucket the trusted segments by their current BS in one pass, ascending
  // id within a bucket. Exact: the plane applies decisions only after Evaluate
  // returns, so no assignment moves during the exporter scan below.
  for (std::vector<std::pair<double, uint32_t>>& bucket : candidates_) {
    bucket.clear();
  }
  for (const auto& [seg, bytes] : *signal.segment_bytes) {
    if (distrust_[seg] == 0) {
      candidates_[actuator_->CurrentBs(SegmentId(seg)).value()].emplace_back(ewma_[seg], seg);
    }
  }

  // 4. Exporters in ascending BS id; peel hottest trusted segments first.
  uint32_t migrations = 0;
  for (uint32_t bs = 0; bs < predicted.size(); ++bs) {
    if (down[bs] != 0 || predicted[bs] <= threshold) {
      continue;
    }
    std::vector<std::pair<double, uint32_t>>& candidates = candidates_[bs];
    std::sort(candidates.begin(), candidates.end(),
              [](const std::pair<double, uint32_t>& a, const std::pair<double, uint32_t>& b) {
                if (a.first != b.first) {
                  return a.first > b.first;  // hottest first
                }
                return a.second < b.second;  // ascending id on ties
              });
    double moved = 0.0;
    for (const auto& [load, seg] : candidates) {
      if (moved >= budget || migrations >= config_.max_migrations_per_period) {
        break;
      }
      if (predicted[bs] <= mean) {
        break;  // exporter already pushed to the fleet mean
      }
      const uint32_t to = LeastLoaded(predicted, down, bs);
      if (to == predicted.size() || predicted[to] + load >= predicted[bs]) {
        break;  // the move would not strictly improve the imbalance
      }
      predicted[bs] -= load;
      predicted[to] += load;
      moved += load;
      ++migrations;
      Decision migrate;
      migrate.period = signal.period;
      migrate.step = signal.step_end - 1;
      migrate.policy = id();
      migrate.action = ActionKind::kMigrateSegment;
      migrate.target = seg;
      migrate.aux = to;
      migrate.value = load;
      out->push_back(migrate);
    }
  }
}

// --- LendingPolicy ----------------------------------------------------------

void LendingPolicy::OnStart(const Fleet& /*fleet*/) {
  current_rate_ = config_.base_lending_rate;
  tokens_spent_ = 0.0;
}

void LendingPolicy::Evaluate(const ControlSignal& signal, PeriodContext* /*context*/,
                             std::vector<Decision>* out) {
  // Decide the rate for the *next* period. Raising above base spends tokens
  // (one period's worth per evaluation); at or below base is free. The spend
  // is clamped to the remaining budget, so cumulative spend never exceeds it.
  double target = config_.base_lending_rate;
  if (signal.wt_cov > config_.high_cov) {
    const double remaining = config_.lending_budget - tokens_spent_;
    const double want = config_.raised_lending_rate - config_.base_lending_rate;
    const double spend = std::min(want, remaining);
    if (spend > kTokenEpsilon) {
      target = config_.base_lending_rate + spend;
      tokens_spent_ += spend;
    }
  }
  if (target != current_rate_) {
    current_rate_ = target;
    Decision decision;
    decision.period = signal.period;
    decision.step = signal.step_end - 1;
    decision.policy = id();
    decision.action = ActionKind::kSetLendingRate;
    decision.value = target;
    out->push_back(decision);
  }
}

// --- CacheAdmissionPolicy ---------------------------------------------------

void CacheAdmissionPolicy::OnStart(const Fleet& /*fleet*/) {
  admission_on_ = true;  // matches OnlineCacheSink's default
}

void CacheAdmissionPolicy::Evaluate(const ControlSignal& signal, PeriodContext* /*context*/,
                                    std::vector<Decision>* out) {
  const std::vector<double>& vd = *signal.vd_offered_bytes;
  double total = 0.0;
  double top = 0.0;
  size_t active = 0;
  for (const double bytes : vd) {
    if (bytes > 0.0) {
      total += bytes;
      top = std::max(top, bytes);
      ++active;
    }
  }
  const bool hot =
      active >= 2 && top > config_.hot_vd_factor * (total / static_cast<double>(active));
  if (hot != admission_on_) {
    admission_on_ = hot;
    Decision decision;
    decision.period = signal.period;
    decision.step = signal.step_end - 1;
    decision.policy = id();
    decision.action = ActionKind::kSetCacheAdmission;
    decision.value = hot ? 1.0 : 0.0;
    out->push_back(decision);
  }
}

}  // namespace control
}  // namespace ebs
