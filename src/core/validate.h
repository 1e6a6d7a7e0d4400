// Configuration validation. Fallible user input is checked up front with
// readable diagnostics instead of asserting deep inside the builders.

#ifndef SRC_CORE_VALIDATE_H_
#define SRC_CORE_VALIDATE_H_

#include <string>

#include "src/core/config.h"

namespace ebs {

// Each returns an empty string when the config is usable, otherwise a
// human-readable description of the first problem found.
std::string ValidateFleetConfig(const FleetConfig& config);
// Includes config.latency: every component base time, jitter_sigma,
// straggler_multiplier and flash_read_us finite and non-negative, and
// straggler_probability in [0, 1].
std::string ValidateWorkloadConfig(const WorkloadConfig& config);
// Checked only when control is enabled: a positive period; ewma_alpha and
// both lending rates in [0, 1]; exporter_threshold, hot_vd_factor and
// throttle_cap_scale finite and positive; the budgets, tolerances, crash
// factors and high_cov finite and non-negative; and a cache policy and block
// size the plane's OnlineCacheSink accepts.
std::string ValidateControlConfig(const control::ControlConfig& config);
// Also checks queueing (qmodel::ValidateQueueModelConfig) and control when
// enabled.
std::string ValidateSimulationConfig(const SimulationConfig& config);

// Returns `config` when ValidateSimulationConfig accepts it; otherwise throws
// std::invalid_argument with the validator's message. Every facade
// constructor passes its config through this before building anything.
const SimulationConfig& CheckSimulationConfig(const SimulationConfig& config);

}  // namespace ebs

#endif  // SRC_CORE_VALIDATE_H_
