// Decision schema and decision log of the closed-loop control plane.
//
// Policies never touch actuators directly: they emit Decision records, and
// ControlPlane applies each record to its sinks in emission order. The log is
// therefore the single source of truth for everything the control plane did —
// fingerprinting it pins *policy behavior*, not just traffic totals, and
// replaying the log would reproduce every actuation.

#ifndef SRC_CONTROL_POLICY_H_
#define SRC_CONTROL_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ebs {
namespace control {

// Fixed policy identifiers; also the per-period evaluation order.
enum class PolicyId : uint8_t {
  kFaultResponse = 0,  // 1st: crashed-BS evacuation + migration pressure
  kMigration = 1,      // 2nd: predictor-driven segment migration
  kLending = 2,        // 3rd: CoV-adaptive lending rate
  kCacheAdmission = 3, // 4th: hotspot-gated cache admission
};
const char* PolicyIdName(PolicyId id);

enum class ActionKind : uint8_t {
  kEvacuateSegment = 0,  // target=segment, aux=destination BS
  kSetPressure = 1,      // value=budget multiplier for this period's migration pass
  kMigrateSegment = 2,   // target=segment, aux=destination BS, value=predicted bytes
  kSetLendingRate = 3,   // value=new Algorithm-2 p
  kSetCacheAdmission = 4,  // value=1 enable, 0 disable
};
const char* ActionKindName(ActionKind kind);

struct Decision {
  uint32_t period = 0;
  uint32_t step = 0;  // closing step of the period the decision fired at
  PolicyId policy = PolicyId::kFaultResponse;
  ActionKind action = ActionKind::kEvacuateSegment;
  uint32_t target = 0;  // segment/VD id, 0 when unused
  uint32_t aux = 0;     // destination BS id, 0 when unused
  double value = 0.0;   // rate / multiplier / forecast, 0 when unused
};

class DecisionLog {
 public:
  void Append(const Decision& decision) { decisions_.push_back(decision); }
  const std::vector<Decision>& decisions() const { return decisions_; }
  size_t size() const { return decisions_.size(); }
  bool empty() const { return decisions_.empty(); }

  // Decisions of one kind, in log order.
  std::vector<Decision> Filtered(ActionKind kind) const;

  // FNV-1a over every field of every decision, in log order. Equal
  // fingerprints mean the control plane made bit-identical decisions at
  // identical times.
  uint64_t Fingerprint() const;

  // Human-readable one-line-per-decision dump (debugging and benches).
  std::string Format() const;

 private:
  std::vector<Decision> decisions_;
};

// Mutable per-period context shared across the policies in evaluation order.
// FaultResponse escalates; Migration consumes the escalation.
struct PeriodContext {
  double budget_scale = 1.0;     // multiplier on the migration budget
  double threshold_scale = 1.0;  // multiplier on the exporter threshold
};

}  // namespace control
}  // namespace ebs

#endif  // SRC_CONTROL_POLICY_H_
