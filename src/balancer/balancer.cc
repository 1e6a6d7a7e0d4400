#include "src/balancer/balancer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "src/util/stats.h"

namespace ebs {

const char* ImporterPolicyName(ImporterPolicy policy) {
  switch (policy) {
    case ImporterPolicy::kRandom:
      return "S1-Random";
    case ImporterPolicy::kMinTraffic:
      return "S2-MinTraffic";
    case ImporterPolicy::kMinVariance:
      return "S3-MinVariance";
    case ImporterPolicy::kLunule:
      return "S4-Lunule";
    case ImporterPolicy::kIdeal:
      return "S5-Ideal";
    case ImporterPolicy::kPredictive:
      return "S6-Predictive";
    case ImporterPolicy::kSegmentForecast:
      return "S7-SegmentForecast";
  }
  return "unknown";
}

namespace {

void ValidateBalancerConfig(const BalancerConfig& config) {
  if (config.period_steps == 0) {
    throw std::invalid_argument("balancer: period_steps must be >= 1");
  }
  if (!std::isfinite(config.exporter_threshold) || config.exporter_threshold < 0.0) {
    throw std::invalid_argument("balancer: exporter_threshold must be finite and non-negative");
  }
  if (!std::isfinite(config.migration_budget) || config.migration_budget < 0.0) {
    throw std::invalid_argument("balancer: migration_budget must be finite and non-negative");
  }
  if (!(config.segment_ewma_alpha >= 0.0 && config.segment_ewma_alpha <= 1.0)) {
    throw std::invalid_argument("balancer: segment_ewma_alpha must be in [0, 1]");
  }
}

}  // namespace

InterBsBalancer::InterBsBalancer(const Fleet& fleet, const MetricDataset& metrics,
                                 StorageClusterId cluster, BalancerConfig config)
    : fleet_(fleet), metrics_(metrics), config_(std::move(config)), rng_(config_.seed) {
  ValidateBalancerConfig(config_);
  if (cluster.value() >= fleet.storage_clusters.size()) {
    throw std::invalid_argument("balancer: unknown storage cluster");
  }
  const StorageCluster& sc = fleet.storage_clusters[cluster.value()];
  std::map<uint32_t, uint32_t> bs_slot;  // BlockServerId value -> slot
  for (const StorageNodeId node_id : sc.nodes) {
    const BlockServerId bs = fleet.storage_nodes[node_id.value()].block_server;
    bs_slot[bs.value()] = static_cast<uint32_t>(bs_ids_.size());
    bs_ids_.push_back(bs);
  }

  // All segments hosted by this cluster — idle ones carry no traffic but
  // still matter for the same-VD placement constraint.
  for (const BlockServerId bs : bs_ids_) {
    const uint32_t slot = bs_slot[bs.value()];
    for (const SegmentId seg_id : fleet.block_servers[bs.value()].segments) {
      const Segment& segment = fleet.segments[seg_id.value()];
      SegmentState state;
      state.id = segment.id;
      state.vd = segment.vd;
      state.bs_slot = slot;
      segments_.push_back(state);
    }
  }

  periods_ = metrics.window_steps / config_.period_steps;
  history_.assign(bs_ids_.size(), {});
  segment_ewma_.assign(segments_.size(), 0.0);
  if (config_.policy == ImporterPolicy::kPredictive && config_.predictor_factory) {
    for (size_t i = 0; i < bs_ids_.size(); ++i) {
      predictors_.push_back(config_.predictor_factory());
    }
  }
}

double InterBsBalancer::SegmentPeriodTraffic(size_t segment_slot, size_t period,
                                             OpType op) const {
  const std::optional<SegmentView> series = metrics_.SegmentSeries(segments_[segment_slot].id);
  if (!series) {
    return 0.0;
  }
  const size_t begin = period * config_.period_steps;
  const size_t end = std::min(begin + config_.period_steps, series->steps());
  double sum = 0.0;
  for (size_t t = begin; t < end; ++t) {
    sum += series->Bytes(op, t);
  }
  return sum;
}

uint32_t InterBsBalancer::PickImporter(size_t period, OpType op, uint32_t exporter_slot,
                                       VdId vd, const std::vector<double>& bs_traffic) {
  const size_t n = bs_ids_.size();

  // Never import onto a BS that is down this period — liveness is excluded
  // before the spread constraint so a freshly-evacuated (hence zero-traffic)
  // dead BS can never win a min-score policy. Only when every other BS is
  // down too does a dead slot stay eligible.
  std::unordered_set<uint32_t> excluded;
  excluded.insert(exporter_slot);
  for (const uint32_t down : DownSlots(period)) {
    if (down != exporter_slot && excluded.size() + 1 < n) {
      excluded.insert(down);
    }
  }
  // Sibling exclusion on top: BSs already hosting a segment of this VD. The
  // spread constraint yields to liveness — when every live candidate hosts a
  // sibling, imports go to a live sibling host, never to a dead BS.
  if (config_.enforce_vd_spread) {
    std::unordered_set<uint32_t> with_spread = excluded;
    for (const SegmentState& seg : segments_) {
      if (seg.vd == vd) {
        with_spread.insert(seg.bs_slot);
      }
    }
    if (with_spread.size() < n) {
      excluded = std::move(with_spread);
    }
  }

  auto best_by = [&](auto score_of) {
    uint32_t best = exporter_slot;
    double best_score = std::numeric_limits<double>::infinity();
    for (uint32_t slot = 0; slot < n; ++slot) {
      if (excluded.count(slot) > 0) {
        continue;
      }
      const double score = score_of(slot);
      if (score < best_score) {
        best_score = score;
        best = slot;
      }
    }
    return best;
  };

  switch (config_.policy) {
    case ImporterPolicy::kRandom: {
      uint32_t slot;
      do {
        slot = static_cast<uint32_t>(rng_.NextBounded(n));
      } while (excluded.count(slot) > 0 && excluded.size() < n);
      return slot;
    }
    case ImporterPolicy::kMinTraffic:
      return best_by([&](uint32_t slot) { return bs_traffic[slot]; });
    case ImporterPolicy::kMinVariance:
      return best_by([&](uint32_t slot) {
        return history_[slot].size() < 2 ? bs_traffic[slot] : Variance(history_[slot]);
      });
    case ImporterPolicy::kLunule:
      return best_by([&](uint32_t slot) {
        const auto& hist = history_[slot];
        if (hist.size() < 2) {
          return bs_traffic[slot];
        }
        const size_t window = std::min<size_t>(4, hist.size());
        const std::vector<double> recent(hist.end() - static_cast<ptrdiff_t>(window),
                                         hist.end());
        const LinearFitResult fit = FitLine(recent);
        const double predicted = fit.intercept + fit.slope * static_cast<double>(window);
        return std::isfinite(predicted) ? std::max(0.0, predicted) : bs_traffic[slot];
      });
    case ImporterPolicy::kIdeal: {
      if (period + 1 >= periods_) {
        return best_by([&](uint32_t slot) { return bs_traffic[slot]; });
      }
      // Oracle: actual next-period traffic under the current assignment.
      std::vector<double> next(n, 0.0);
      for (size_t s = 0; s < segments_.size(); ++s) {
        next[segments_[s].bs_slot] += SegmentPeriodTraffic(s, period + 1, op);
      }
      return best_by([&](uint32_t slot) { return next[slot]; });
    }
    case ImporterPolicy::kPredictive:
      return best_by([&](uint32_t slot) {
        if (predictors_.empty()) {
          return bs_traffic[slot];
        }
        const double predicted = predictors_[slot]->PredictNext();
        return std::isfinite(predicted) ? predicted : bs_traffic[slot];
      });
    case ImporterPolicy::kSegmentForecast: {
      // Sum the per-segment forecasts under the current assignment: a
      // migration instantly moves the segment's forecast with it.
      std::vector<double> forecast(n, 0.0);
      for (size_t s = 0; s < segments_.size(); ++s) {
        forecast[segments_[s].bs_slot] += segment_ewma_[s];
      }
      return best_by([&](uint32_t slot) { return forecast[slot]; });
    }
  }
  return exporter_slot;
}

std::vector<uint32_t> InterBsBalancer::DownSlots(size_t period) const {
  std::vector<uint32_t> down;
  if (config_.faults == nullptr) {
    return down;
  }
  const size_t step = period * config_.period_steps;
  for (uint32_t slot = 0; slot < bs_ids_.size(); ++slot) {
    if (config_.faults->BlockServerDown(step, bs_ids_[slot])) {
      down.push_back(slot);
    }
  }
  return down;
}

void InterBsBalancer::ForcedMigrationPass(size_t period, std::vector<double>& bs_traffic,
                                          BalancerResult& result) {
  const std::vector<uint32_t> down = DownSlots(period);
  if (down.empty()) {
    return;
  }
  const size_t n = bs_ids_.size();
  std::vector<char> is_down(n, 0);
  for (const uint32_t slot : down) {
    is_down[slot] = 1;
  }

  for (size_t s = 0; s < segments_.size(); ++s) {
    SegmentState& seg = segments_[s];
    if (is_down[seg.bs_slot] == 0) {
      continue;
    }
    // Least-loaded healthy importer; spread-preserving candidates win,
    // sibling-hosting ones are the fallback. Ties break on the lowest slot.
    uint32_t best = seg.bs_slot;
    double best_score = std::numeric_limits<double>::infinity();
    bool best_spread_ok = false;
    for (uint32_t slot = 0; slot < n; ++slot) {
      if (is_down[slot] != 0 || slot == seg.bs_slot) {
        continue;
      }
      bool spread_ok = true;
      if (config_.enforce_vd_spread) {
        for (const SegmentState& other : segments_) {
          if (&other != &seg && other.vd == seg.vd && other.bs_slot == slot) {
            spread_ok = false;
            break;
          }
        }
      }
      const bool better = (spread_ok && !best_spread_ok) ||
                          (spread_ok == best_spread_ok && bs_traffic[slot] < best_score);
      if (best == seg.bs_slot || better) {
        best = slot;
        best_score = bs_traffic[slot];
        best_spread_ok = spread_ok;
      }
    }
    if (best == seg.bs_slot) {
      continue;  // the whole cluster is down; nowhere to evacuate
    }
    const double traffic = SegmentPeriodTraffic(s, period, OpType::kWrite);
    bs_traffic[seg.bs_slot] -= traffic;
    bs_traffic[best] += traffic;
    result.migrations.push_back(
        {seg.id, bs_ids_[seg.bs_slot], bs_ids_[best], period, OpType::kWrite, /*forced=*/true});
    ++result.forced_migrations;
    seg.bs_slot = best;
  }
}

void InterBsBalancer::BalancePass(size_t period, OpType op, std::vector<double>& bs_traffic,
                                  BalancerResult& result) {
  const size_t n = bs_ids_.size();
  const double avg = Mean(bs_traffic);
  if (avg <= 0.0) {
    return;
  }

  // Exporters are decided from the period-start snapshot (Algorithm 1 line 4
  // checks w_j^i); a BS that merely *received* segments this period must not
  // immediately re-export them.
  std::vector<uint32_t> exporters;
  for (uint32_t slot = 0; slot < n; ++slot) {
    if (bs_traffic[slot] >= config_.exporter_threshold * avg) {
      exporters.push_back(slot);
    }
  }

  for (const uint32_t exporter : exporters) {
    // Hottest segments of the exporter this period.
    std::vector<std::pair<double, size_t>> hot;  // (traffic, segment slot)
    for (size_t s = 0; s < segments_.size(); ++s) {
      if (segments_[s].bs_slot == exporter) {
        const double traffic = SegmentPeriodTraffic(s, period, op);
        if (traffic > 0.0) {
          hot.emplace_back(traffic, s);
        }
      }
    }
    std::sort(hot.begin(), hot.end(), std::greater<>());

    double moved = 0.0;
    for (const auto& [traffic, slot] : hot) {
      if (moved > config_.migration_budget * avg) {
        break;
      }
      const uint32_t importer =
          PickImporter(period, op, exporter, segments_[slot].vd, bs_traffic);
      if (importer == exporter) {
        continue;
      }
      segments_[slot].bs_slot = importer;
      moved += traffic;
      bs_traffic[exporter] -= traffic;
      bs_traffic[importer] += traffic;  // Algorithm 1 line 8
      result.migrations.push_back(
          {segments_[slot].id, bs_ids_[exporter], bs_ids_[importer], period, op});
    }
  }
}

BalancerResult InterBsBalancer::Run() {
  BalancerResult result;
  result.periods = periods_;
  const size_t n = bs_ids_.size();

  for (size_t period = 0; period < periods_; ++period) {
    // Traffic under the assignment in force at the period start.
    std::vector<double> write_traffic(n, 0.0);
    std::vector<double> read_traffic(n, 0.0);
    for (size_t s = 0; s < segments_.size(); ++s) {
      write_traffic[segments_[s].bs_slot] += SegmentPeriodTraffic(s, period, OpType::kWrite);
      read_traffic[segments_[s].bs_slot] += SegmentPeriodTraffic(s, period, OpType::kRead);
    }
    result.write_cov.push_back(NormalizedCoV(write_traffic));
    result.read_cov.push_back(NormalizedCoV(read_traffic));

    // Failure-triggered evacuation first: load balancing then runs over the
    // post-evacuation assignment and never exports from or imports to a dead
    // BS.
    ForcedMigrationPass(period, write_traffic, result);

    // S7: refresh per-segment EWMA forecasts before balancing.
    if (config_.policy == ImporterPolicy::kSegmentForecast) {
      const double alpha = config_.segment_ewma_alpha;
      for (size_t s = 0; s < segments_.size(); ++s) {
        const double observed = SegmentPeriodTraffic(s, period, OpType::kWrite);
        segment_ewma_[s] = period == 0
                               ? observed
                               : alpha * observed + (1.0 - alpha) * segment_ewma_[s];
      }
    }

    BalancePass(period, OpType::kWrite, write_traffic, result);
    if (config_.migrate_reads) {
      BalancePass(period, OpType::kRead, read_traffic, result);
    }

    // Feed histories / predictors with this period's traffic under the
    // *post-migration* assignment: forecasting the stale assignment would
    // mispredict every BS a segment just moved to or from.
    std::vector<double> settled(n, 0.0);
    for (size_t s = 0; s < segments_.size(); ++s) {
      settled[segments_[s].bs_slot] += SegmentPeriodTraffic(s, period, OpType::kWrite);
    }
    for (uint32_t slot = 0; slot < n; ++slot) {
      history_[slot].push_back(settled[slot]);
      if (!predictors_.empty()) {
        predictors_[slot]->Observe(settled[slot]);
      }
    }
  }
  return result;
}

double FrequentMigrationProportion(const std::vector<Migration>& migrations,
                                   size_t window_periods) {
  if (window_periods == 0) {
    throw std::invalid_argument("FrequentMigrationProportion: window_periods must be >= 1");
  }
  if (migrations.empty()) {
    return 0.0;
  }
  // Per (window, BS): incoming/outgoing flags.
  std::map<std::pair<size_t, uint32_t>, std::pair<bool, bool>> flags;  // (out, in)
  for (const Migration& m : migrations) {
    const size_t window = m.period / window_periods;
    flags[{window, m.from.value()}].first = true;
    flags[{window, m.to.value()}].second = true;
  }
  size_t frequent = 0;
  for (const Migration& m : migrations) {
    const size_t window = m.period / window_periods;
    const auto from_flags = flags[{window, m.from.value()}];
    const auto to_flags = flags[{window, m.to.value()}];
    if ((from_flags.first && from_flags.second) || (to_flags.first && to_flags.second)) {
      ++frequent;
    }
  }
  return static_cast<double>(frequent) / static_cast<double>(migrations.size());
}

std::vector<double> MigrationIntervals(const std::vector<Migration>& migrations,
                                       size_t total_periods) {
  std::map<uint32_t, std::vector<size_t>> per_segment;
  for (const Migration& m : migrations) {
    per_segment[m.segment.value()].push_back(m.period);
  }
  std::vector<double> intervals;
  for (auto& [segment, periods] : per_segment) {
    std::sort(periods.begin(), periods.end());
    for (size_t i = 1; i < periods.size(); ++i) {
      intervals.push_back(static_cast<double>(periods[i] - periods[i - 1]) /
                          static_cast<double>(std::max<size_t>(1, total_periods)));
    }
  }
  return intervals;
}

}  // namespace ebs
