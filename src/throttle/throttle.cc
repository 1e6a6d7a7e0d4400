#include "src/throttle/throttle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "src/analysis/skewness.h"
#include "src/throttle/online_lending.h"

namespace ebs {

namespace {

constexpr double kBytesPerMB = 1e6;

// Throws for NaN too: it fails every ordered comparison.
void CheckFraction(double value, const char* message) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(message);
  }
}

struct StepUsage {
  double read_bytes = 0.0;
  double write_bytes = 0.0;
  double read_ops = 0.0;
  double write_ops = 0.0;
  double Bytes() const { return read_bytes + write_bytes; }
  double Ops() const { return read_ops + write_ops; }
};

StepUsage UsageAt(const RwSeries& series, size_t t) {
  return {series.read_bytes[t], series.write_bytes[t], series.read_ops[t],
          series.write_ops[t]};
}

}  // namespace

StepCaps StepCapsOf(const Vd& vd, double cap_scale, double step_seconds) {
  return {vd.throughput_cap_mbps * kBytesPerMB * cap_scale * step_seconds,
          vd.iops_cap * cap_scale * step_seconds};
}

void CheckCapScale(double cap_scale) {
  if (!(std::isfinite(cap_scale) && cap_scale > 0.0)) {
    throw std::invalid_argument("throttle: cap_scale must be finite and positive");
  }
}

const char* ResourceKindName(ResourceKind kind) {
  return kind == ResourceKind::kThroughput ? "throughput" : "IOPS";
}

std::vector<SharingGroup> MultiVdVmGroups(const Fleet& fleet) {
  std::vector<SharingGroup> groups;
  for (const Vm& vm : fleet.vms) {
    if (vm.vds.size() >= 2) {
      groups.push_back({vm.vds});
    }
  }
  return groups;
}

std::vector<SharingGroup> MultiVmNodeGroups(const Fleet& fleet) {
  // Key: (node, user) -> VDs of that tenant's VMs on that node.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<VdId>> buckets;
  std::map<std::pair<uint32_t, uint32_t>, size_t> vm_counts;
  for (const Vm& vm : fleet.vms) {
    const auto key = std::make_pair(vm.node.value(), vm.user.value());
    auto& bucket = buckets[key];
    bucket.insert(bucket.end(), vm.vds.begin(), vm.vds.end());
    ++vm_counts[key];
  }
  std::vector<SharingGroup> groups;
  for (const auto& [key, vds] : buckets) {
    if (vm_counts[key] >= 2) {
      groups.push_back({vds});
    }
  }
  return groups;
}

ThrottleAnalysis AnalyzeThrottle(const Fleet& fleet, const std::vector<RwSeries>& offered_vd,
                                 const std::vector<SharingGroup>& groups,
                                 const ThrottleConfig& config) {
  CheckCapScale(config.cap_scale);
  ThrottleAnalysis analysis;
  if (offered_vd.empty()) {
    return analysis;
  }
  const size_t steps = offered_vd.front().read_bytes.size();
  const double dt = offered_vd.front().read_bytes.step_seconds();

  for (const SharingGroup& group : groups) {
    std::vector<StepCaps> caps;
    caps.reserve(group.vds.size());
    double group_cap_bytes = 0.0;
    double group_cap_ops = 0.0;
    for (const VdId vd : group.vds) {
      caps.push_back(StepCapsOf(fleet.vds[vd.value()], config.cap_scale, dt));
      group_cap_bytes += caps.back().bytes;
      group_cap_ops += caps.back().ops;
    }

    for (size_t t = 0; t < steps; ++t) {
      // Group usage, with each VD clipped to its own caps (delivered load).
      double used_bytes = 0.0;
      double used_ops = 0.0;
      for (size_t i = 0; i < group.vds.size(); ++i) {
        const StepUsage usage = UsageAt(offered_vd[group.vds[i].value()], t);
        used_bytes += std::min(usage.Bytes(), caps[i].bytes);
        used_ops += std::min(usage.Ops(), caps[i].ops);
      }

      for (size_t i = 0; i < group.vds.size(); ++i) {
        const StepUsage usage = UsageAt(offered_vd[group.vds[i].value()], t);
        const double bytes_over = caps[i].bytes > 0.0 ? usage.Bytes() / caps[i].bytes : 0.0;
        const double ops_over = caps[i].ops > 0.0 ? usage.Ops() / caps[i].ops : 0.0;
        if (bytes_over <= 1.0 && ops_over <= 1.0) {
          continue;
        }
        ThrottleEvent event;
        event.vd = group.vds[i];
        event.step = t;
        event.trigger = bytes_over >= ops_over ? ThrottleTrigger::kThroughput
                                               : ThrottleTrigger::kIops;
        if (event.trigger == ThrottleTrigger::kThroughput) {
          ++analysis.throughput_events;
          event.rar = group_cap_bytes > 0.0
                          ? std::max(0.0, group_cap_bytes - used_bytes) / group_cap_bytes
                          : 0.0;
          event.wr_ratio = WriteToReadRatio(usage.write_bytes, usage.read_bytes);
          analysis.rar_throughput.push_back(event.rar);
          analysis.wr_ratio_throughput.push_back(event.wr_ratio);
        } else {
          ++analysis.iops_events;
          event.rar = group_cap_ops > 0.0
                          ? std::max(0.0, group_cap_ops - used_ops) / group_cap_ops
                          : 0.0;
          event.wr_ratio = WriteToReadRatio(usage.write_ops, usage.read_ops);
          analysis.rar_iops.push_back(event.rar);
          analysis.wr_ratio_iops.push_back(event.wr_ratio);
        }
        analysis.events.push_back(event);
      }
    }
  }
  return analysis;
}

ReductionRates ComputeReductionRates(const Fleet& fleet,
                                     const std::vector<RwSeries>& offered_vd,
                                     const std::vector<SharingGroup>& groups,
                                     const ThrottleConfig& config, double lending_rate) {
  CheckFraction(lending_rate, "throttle: lending_rate must be in [0, 1]");
  ReductionRates rates;
  const ThrottleAnalysis analysis = AnalyzeThrottle(fleet, offered_vd, groups, config);
  if (offered_vd.empty()) {
    return rates;
  }
  const double dt = offered_vd.front().read_bytes.step_seconds();

  // Group caps per member VD, so AR can be recovered in absolute units from
  // the stored RAR (rar = AR / group_cap).
  std::unordered_map<uint32_t, StepCaps> group_caps;
  for (const SharingGroup& group : groups) {
    StepCaps total;
    for (const VdId vd : group.vds) {
      const StepCaps caps = StepCapsOf(fleet.vds[vd.value()], config.cap_scale, dt);
      total.bytes += caps.bytes;
      total.ops += caps.ops;
    }
    for (const VdId vd : group.vds) {
      group_caps[vd.value()] = total;
    }
  }

  // Per-event: the throttled VD delivers exactly its cap; lending p*AR extra
  // would shorten the backlog drain by VD(t) / (VD(t) + p*AR_absolute).
  for (const ThrottleEvent& event : analysis.events) {
    const StepCaps caps = StepCapsOf(fleet.vds[event.vd.value()], config.cap_scale, dt);
    const StepCaps& group_cap = group_caps[event.vd.value()];
    if (event.trigger == ThrottleTrigger::kThroughput) {
      const double ar_abs = event.rar * group_cap.bytes;
      rates.throughput.push_back(caps.bytes / (caps.bytes + lending_rate * ar_abs));
    } else {
      const double ar_abs = event.rar * group_cap.ops;
      rates.iops.push_back(caps.ops / (caps.ops + lending_rate * ar_abs));
    }
  }
  return rates;
}

std::vector<double> SimulateLending(const Fleet& fleet,
                                    const std::vector<RwSeries>& offered_vd,
                                    const std::vector<SharingGroup>& groups,
                                    const ThrottleConfig& config) {
  const size_t steps = offered_vd.empty() ? 0 : offered_vd.front().read_bytes.size();
  const double dt = offered_vd.empty() ? 1.0 : offered_vd.front().read_bytes.step_seconds();
  const std::vector<RwSeries> no_qps;
  const SegmentSeriesMap no_segments;
  std::vector<double> gains;
  // One sink per group, stepped through the whole window: Algorithm 2 carries
  // no state across groups, so the gains equal one all-groups sink's, and the
  // few series of one group stay in cache for the whole window. One
  // all-groups sink sweeps every group's rows at each period boundary, which
  // measured 2.4x slower (Release, 4-vCPU Xeon; DcPreset(1): 243 groups,
  // 60-step periods).
  for (const SharingGroup& group : groups) {
    OnlineLendingSink lending({group}, config);
    lending.OnStart(fleet, steps, dt);
    for (size_t t = 0; t < steps; ++t) {
      lending.OnStepComplete({t, dt, no_qps, offered_vd, no_segments});
    }
    lending.OnFinish();
    gains.insert(gains.end(), lending.gains().begin(), lending.gains().end());
  }
  return gains;
}

const char* CapSplitModeName(CapSplitMode mode) {
  switch (mode) {
    case CapSplitMode::kJoint:
      return "joint-cap";
    case CapSplitMode::kStaticSplit:
      return "static-split";
    case CapSplitMode::kProfiledSplit:
      return "profiled-split";
  }
  return "unknown";
}

CapSplitResult EvaluateCapSplit(const Fleet& fleet, const std::vector<RwSeries>& offered_vd,
                                CapSplitMode mode, double static_read_fraction,
                                double cap_scale) {
  CheckFraction(static_read_fraction, "throttle: static_read_fraction must be in [0, 1]");
  CheckCapScale(cap_scale);
  CapSplitResult result;
  result.mode = mode;
  if (offered_vd.empty()) {
    return result;
  }
  const size_t steps = offered_vd.front().read_bytes.size();
  const double dt = offered_vd.front().read_bytes.step_seconds();

  for (const Vd& vd : fleet.vds) {
    const RwSeries& offered = offered_vd[vd.id.value()];
    const StepCaps caps = StepCapsOf(vd, cap_scale, dt);

    // Per-VD read fraction for the profiled mode (oracle: the realized mix).
    double read_fraction = static_read_fraction;
    if (mode == CapSplitMode::kProfiledSplit) {
      const double read = offered.read_bytes.SumAll();
      const double write = offered.write_bytes.SumAll();
      const double total = read + write;
      read_fraction = total > 0.0 ? std::clamp(read / total, 0.05, 0.95) : 0.5;
    }

    for (size_t t = 0; t < steps; ++t) {
      const StepUsage usage = UsageAt(offered, t);
      if (usage.Bytes() <= 0.0 && usage.Ops() <= 0.0) {
        continue;
      }
      const bool joint_throttled = (caps.bytes > 0.0 && usage.Bytes() > caps.bytes) ||
                                   (caps.ops > 0.0 && usage.Ops() > caps.ops);
      bool throttled = joint_throttled;
      if (mode != CapSplitMode::kJoint) {
        const double read_bytes_cap = caps.bytes * read_fraction;
        const double write_bytes_cap = caps.bytes - read_bytes_cap;
        const double read_ops_cap = caps.ops * read_fraction;
        const double write_ops_cap = caps.ops - read_ops_cap;
        throttled = usage.read_bytes > read_bytes_cap ||
                    usage.write_bytes > write_bytes_cap || usage.read_ops > read_ops_cap ||
                    usage.write_ops > write_ops_cap;
      }
      if (throttled) {
        ++result.throttled_vd_seconds;
        if (!joint_throttled) {
          ++result.split_induced_seconds;
        }
      }
    }
  }
  return result;
}

std::vector<BacklogResult> ComputeThrottleBacklog(const Fleet& fleet,
                                                  const std::vector<RwSeries>& offered_vd,
                                                  double cap_scale,
                                                  double lending_headroom_mbps) {
  CheckCapScale(cap_scale);
  if (!(std::isfinite(lending_headroom_mbps) && lending_headroom_mbps >= 0.0)) {
    throw std::invalid_argument("throttle: lending_headroom_mbps must be finite and non-negative");
  }
  std::vector<BacklogResult> results;
  if (offered_vd.empty()) {
    return results;
  }
  const size_t steps = offered_vd.front().read_bytes.size();
  const double dt = offered_vd.front().read_bytes.step_seconds();

  for (const Vd& vd : fleet.vds) {
    const RwSeries& offered = offered_vd[vd.id.value()];
    const double cap_per_step =
        (vd.throughput_cap_mbps + lending_headroom_mbps) * kBytesPerMB * cap_scale * dt;
    if (cap_per_step <= 0.0) {
      continue;
    }
    double backlog_bytes = 0.0;
    BacklogResult result;
    result.vd = vd.id;
    for (size_t t = 0; t < steps; ++t) {
      const double arriving = offered.read_bytes[t] + offered.write_bytes[t];
      backlog_bytes = std::max(0.0, backlog_bytes + arriving - cap_per_step);
      if (backlog_bytes > 0.0) {
        result.backlogged_seconds += dt;
        result.max_delay_seconds =
            std::max(result.max_delay_seconds, backlog_bytes / (cap_per_step / dt));
      }
    }
    if (result.backlogged_seconds > 0.0) {
      results.push_back(result);
    }
  }
  return results;
}

}  // namespace ebs
