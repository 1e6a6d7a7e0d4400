#include "src/core/validate.h"

#include <cmath>
#include <stdexcept>

namespace ebs {

namespace {

// Each test is false for NaN and the infinities: NaN fails every ordered
// comparison, so a bare `x <= 0.0` rejection lets it through.
bool IsFraction(double x) { return x >= 0.0 && x <= 1.0; }
bool IsPositive(double x) { return std::isfinite(x) && x > 0.0; }
bool IsNonNegative(double x) { return std::isfinite(x) && x >= 0.0; }

}  // namespace

std::string ValidateFleetConfig(const FleetConfig& config) {
  if (config.user_count == 0) {
    return "fleet: user_count must be >= 1";
  }
  if (config.vms_per_user_max == 0 || config.vds_per_vm_max == 0) {
    return "fleet: per-entity maxima must be >= 1";
  }
  if (!IsNonNegative(config.vms_per_user_sigma) || !IsNonNegative(config.vds_per_vm_sigma)) {
    return "fleet: lognormal sigmas must be finite and non-negative";
  }
  if (config.max_vms_per_node < 1) {
    return "fleet: max_vms_per_node must be >= 1";
  }
  if (!IsFraction(config.bare_metal_user_fraction)) {
    return "fleet: bare_metal_user_fraction must be in [0, 1]";
  }
  if (config.wts_per_node < 1) {
    return "fleet: wts_per_node must be >= 1";
  }
  if (config.storage_cluster_count == 0 || config.storage_nodes_per_cluster == 0) {
    return "fleet: storage topology must have >= 1 cluster and >= 1 node per cluster";
  }
  if (config.app_vm_weights.size() != static_cast<size_t>(kAppTypeCount)) {
    return "fleet: app_vm_weights must have one entry per AppType";
  }
  double weight_sum = 0.0;
  for (const double w : config.app_vm_weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      return "fleet: app_vm_weights must be finite and non-negative";
    }
    weight_sum += w;
  }
  if (weight_sum <= 0.0) {
    return "fleet: app_vm_weights must not all be zero";
  }
  return {};
}

std::string ValidateWorkloadConfig(const WorkloadConfig& config) {
  if (config.window_steps == 0) {
    return "workload: window_steps must be >= 1";
  }
  if (!IsPositive(config.step_seconds)) {
    return "workload: step_seconds must be finite and positive";
  }
  if (!IsPositive(config.sampling_rate) || config.sampling_rate > 1.0) {
    return "workload: sampling_rate must be in (0, 1]";
  }
  if (!IsPositive(config.rate_scale)) {
    return "workload: rate_scale must be finite and positive";
  }
  if (!IsPositive(config.cap_scale)) {
    return "workload: cap_scale must be finite and positive";
  }
  if (!IsNonNegative(config.max_vd_mean_write_rate_mbps)) {
    return "workload: max_vd_mean_write_rate_mbps must be finite and non-negative";
  }
  if (!(config.hot_prob_scale >= 0.0 && config.hot_prob_scale <= 2.0)) {
    return "workload: hot_prob_scale must be in [0, 2]";
  }
  const LatencyModelConfig& latency = config.latency;
  for (const auto* base_us : {&latency.read_base_us, &latency.write_base_us}) {
    for (const double us : *base_us) {
      if (!IsNonNegative(us)) {
        return "workload: latency read_base_us and write_base_us must be finite and "
               "non-negative";
      }
    }
  }
  if (!IsNonNegative(latency.jitter_sigma) || !IsNonNegative(latency.straggler_multiplier) ||
      !IsNonNegative(latency.flash_read_us)) {
    return "workload: latency jitter_sigma, straggler_multiplier and flash_read_us must be "
           "finite and non-negative";
  }
  if (!IsFraction(latency.straggler_probability)) {
    return "workload: latency straggler_probability must be in [0, 1]";
  }
  return {};
}

std::string ValidateControlConfig(const control::ControlConfig& config) {
  if (config.period_steps == 0) {
    return "control: period_steps must be >= 1";
  }
  if (!IsFraction(config.ewma_alpha) || !IsFraction(config.base_lending_rate) ||
      !IsFraction(config.raised_lending_rate)) {
    return "control: ewma_alpha and the lending rates must be in [0, 1]";
  }
  if (!IsPositive(config.exporter_threshold) || !IsPositive(config.hot_vd_factor) ||
      !IsPositive(config.throttle_cap_scale)) {
    return "control: exporter_threshold, hot_vd_factor and throttle_cap_scale must be finite "
           "and positive";
  }
  for (const double value : {config.migration_budget, config.misprediction_tolerance,
                             config.crash_budget_boost, config.crash_threshold_relief,
                             config.high_cov, config.lending_budget}) {
    if (!IsNonNegative(value)) {
      return "control: migration_budget, misprediction_tolerance, crash_budget_boost, "
             "crash_threshold_relief, high_cov and lending_budget must be finite and "
             "non-negative";
    }
  }
  switch (config.cache_policy) {
    case CachePolicy::kFifo:
    case CachePolicy::kLru:
    case CachePolicy::kLfu:
    case CachePolicy::kClock:
    case CachePolicy::kTwoQ:
      break;
    case CachePolicy::kFrozenHot:
    default:
      return "control: cache_policy must be an eviction policy (FrozenHot is offline-only)";
  }
  if (config.cache_block_bytes < kPageBytes) {
    return "control: cache_block_bytes must hold at least one 4 KiB page";
  }
  return {};
}

std::string ValidateSimulationConfig(const SimulationConfig& config) {
  std::string error = ValidateFleetConfig(config.fleet);
  if (error.empty()) {
    error = ValidateWorkloadConfig(config.workload);
  }
  if (error.empty() && config.queueing.enabled) {
    error = qmodel::ValidateQueueModelConfig(config.queueing);
  }
  if (error.empty() && config.control.enabled) {
    error = ValidateControlConfig(config.control);
  }
  return error;
}

const SimulationConfig& CheckSimulationConfig(const SimulationConfig& config) {
  const std::string problem = ValidateSimulationConfig(config);
  if (!problem.empty()) {
    throw std::invalid_argument(problem);
  }
  return config;
}

}  // namespace ebs
