// The four built-in mitigation policies of the closed-loop control plane,
// composing the paper's §8 directions online:
//
//   1. FaultResponsePolicy  — a crashed BS escalates migration pressure for
//      the period (budget boost, threshold relief) and evacuates the dead
//      server's active segments onto the least-loaded healthy BSs.
//   2. MigrationPolicy      — per-segment EWMA traffic forecast with
//      misprediction feedback: segments whose last forecast missed by more
//      than the tolerance are distrusted for one round; exporters above
//      threshold x mean predicted load peel their hottest trusted segments
//      to the least-loaded predicted healthy importer.
//   3. LendingPolicy        — raises Algorithm 2's lending rate while the
//      observed WT-imbalance CoV is high, under a hard token budget:
//      cumulative (rate - base) across periods never exceeds the budget
//      (token conservation, pinned by a property test).
//   4. CacheAdmissionPolicy — toggles cache admission on hotspot detection:
//      admission pays only while one VD dominates the offered load.
//
// Policies are pure state machines over ControlSignals: no clocks, no RNG, no
// unordered iteration (ebs_lint control-determinism). OnStart resets a policy
// before the first period; Evaluate reads one period's signal, may update the
// policy's state and emits decisions into `out`, which ControlPlane applies.

#ifndef SRC_CONTROL_POLICIES_H_
#define SRC_CONTROL_POLICIES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/balancer/actuator.h"
#include "src/cache/policy.h"
#include "src/control/policy.h"
#include "src/control/signal.h"
#include "src/topology/entities.h"
#include "src/topology/fleet.h"

namespace ebs {
namespace control {

struct ControlConfig {
  // Off by default: every existing config runs bit-identically to the seed.
  bool enabled = false;
  // Evaluation cadence. Only complete periods are evaluated; a trailing
  // partial period observes but never decides.
  uint32_t period_steps = 30;

  // Per-policy enables (all four on when the plane is enabled).
  bool fault_response = true;
  bool migration = true;
  bool lending = true;
  bool cache_admission = true;

  // --- MigrationPolicy ------------------------------------------------------
  double ewma_alpha = 0.5;            // per-segment forecast smoothing
  double exporter_threshold = 1.2;    // exporter: predicted > threshold x mean
  double migration_budget = 0.2;      // bytes peeled per exporter, x mean
  // Relative forecast error above which a segment's predictor is distrusted
  // for one round (misprediction feedback).
  double misprediction_tolerance = 1.0;
  uint32_t max_migrations_per_period = 8;

  // --- FaultResponsePolicy --------------------------------------------------
  double crash_budget_boost = 2.0;      // budget_scale while any BS is down
  double crash_threshold_relief = 0.75; // threshold_scale while any BS is down

  // --- LendingPolicy --------------------------------------------------------
  double base_lending_rate = 0.0;    // the open-loop rate tokens are measured from
  double raised_lending_rate = 0.8;  // rate while the CoV trigger holds
  double high_cov = 0.5;             // normalized WT CoV that triggers a raise
  // Hard token budget: sum over periods of (applied rate - base) <= budget.
  double lending_budget = 12.0;

  // --- CacheAdmissionPolicy -------------------------------------------------
  // Hotspot: top active VD's offered bytes > factor x mean active VD bytes.
  double hot_vd_factor = 8.0;

  // --- Plane-owned mitigation sinks (facade wiring) -------------------------
  CachePolicy cache_policy = CachePolicy::kLru;
  uint64_t cache_block_bytes = 64 * kMiB;
  double throttle_cap_scale = 1.0;  // ThrottleConfig for the plane's lending sink
};

class FaultResponsePolicy {
 public:
  FaultResponsePolicy(const ControlConfig& config, const MigrationActuator* actuator)
      : config_(config), actuator_(actuator) {}
  static constexpr PolicyId id() { return PolicyId::kFaultResponse; }
  void OnStart(const Fleet& fleet);
  void Evaluate(const ControlSignal& signal, PeriodContext* context,
                std::vector<Decision>* out);

 private:
  const ControlConfig& config_;
  const MigrationActuator* actuator_;
  std::vector<uint8_t> prev_down_;  // by BS id: down at the previous period end
};

class MigrationPolicy {
 public:
  MigrationPolicy(const ControlConfig& config, const MigrationActuator* actuator)
      : config_(config), actuator_(actuator) {}
  static constexpr PolicyId id() { return PolicyId::kMigration; }
  void OnStart(const Fleet& fleet);
  void Evaluate(const ControlSignal& signal, PeriodContext* context,
                std::vector<Decision>* out);

  // Misprediction feedback accounting: forecasts whose relative error
  // exceeded the tolerance, cumulative.
  uint64_t mispredictions() const { return mispredictions_; }

 private:
  const ControlConfig& config_;
  const MigrationActuator* actuator_;
  std::vector<double> ewma_;       // by segment id: traffic forecast
  std::vector<uint8_t> seen_;      // by segment id: has at least one sample
  std::vector<uint8_t> distrust_;  // by segment id: scratch, valid per period
  // By BS id: the trusted (forecast, segment) pairs it serves; per-period
  // scratch whose capacity is reused.
  std::vector<std::vector<std::pair<double, uint32_t>>> candidates_;
  uint64_t mispredictions_ = 0;
};

class LendingPolicy {
 public:
  explicit LendingPolicy(const ControlConfig& config) : config_(config) {}
  static constexpr PolicyId id() { return PolicyId::kLending; }
  void OnStart(const Fleet& fleet);
  void Evaluate(const ControlSignal& signal, PeriodContext* context,
                std::vector<Decision>* out);

  double tokens_spent() const { return tokens_spent_; }

 private:
  const ControlConfig& config_;
  double current_rate_ = 0.0;
  double tokens_spent_ = 0.0;
};

class CacheAdmissionPolicy {
 public:
  explicit CacheAdmissionPolicy(const ControlConfig& config) : config_(config) {}
  static constexpr PolicyId id() { return PolicyId::kCacheAdmission; }
  void OnStart(const Fleet& fleet);
  void Evaluate(const ControlSignal& signal, PeriodContext* context,
                std::vector<Decision>* out);

 private:
  const ControlConfig& config_;
  bool admission_on_ = true;  // OnlineCacheSink's default
};

}  // namespace control
}  // namespace ebs

#endif  // SRC_CONTROL_POLICIES_H_
