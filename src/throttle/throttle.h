// Hypervisor traffic throttling analysis and the "limited lending" mitigation
// (§5, Appendix B).
//
// Every VD carries a joint read+write cap on throughput and on IOPS. A VD is
// throttled in a second when its *offered* load exceeds either cap. For each
// throttle event inside a sharing group (the VDs of one VM, or the VMs of one
// tenant co-located on a node), we measure:
//   AR(t)  — available resource: group cap minus group usage (Eq. 1);
//   RAR(t) — AR(t) / group cap;
//   wr_ratio — (W-R)/(W+R) of the throttled VD at t (Eq. 2);
//   RR     — theoretical reduction of throttle duration if the throttled VD
//            could borrow p*AR(t) extra cap (Eq. 3).
// The lending simulator implements Appendix B's Algorithm 2 (with the sign of
// line 9 fixed: lenders give up p * (Cap_j - VD_j(t)), i.e. a fraction of
// their *headroom*; the paper's printed formula would increase the lender's
// cap) and reports the lending gain (t_without - t_with)/(t_without + t_with).

#ifndef SRC_THROTTLE_THROTTLE_H_
#define SRC_THROTTLE_THROTTLE_H_

#include <cstdint>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

enum class ThrottleTrigger : uint8_t { kThroughput = 0, kIops = 1 };

enum class ResourceKind : uint8_t { kThroughput = 0, kIops = 1 };
const char* ResourceKindName(ResourceKind kind);

// A sharing group: VDs allowed to pool caps (multi-VD VM, or multi-VM node).
struct SharingGroup {
  std::vector<VdId> vds;
};

// Groups of >= 2 VDs mounted by one VM.
std::vector<SharingGroup> MultiVdVmGroups(const Fleet& fleet);
// Groups of VDs across >= 2 VMs of the same tenant on the same compute node.
std::vector<SharingGroup> MultiVmNodeGroups(const Fleet& fleet);

struct ThrottleConfig {
  double cap_scale = 1.0;     // tighten (<1) or relax (>1) the spec caps
  double lending_rate = 0.8;  // p in Algorithm 2
  size_t period_steps = 60;   // lending operates periodically (Appendix B)
};

// A VD's caps for one step: its spec throughput and IOPS caps scaled by
// cap_scale and the step length. Every throttle model and the lending sink
// read their caps here.
struct StepCaps {
  double bytes = 0.0;
  double ops = 0.0;
};
StepCaps StepCapsOf(const Vd& vd, double cap_scale, double step_seconds);

// Throws std::invalid_argument unless cap_scale is finite and positive: a NaN
// or zero scale would silently turn throttling off. Every function below that
// takes a cap_scale, and the lending sink's constructor, checks it first.
void CheckCapScale(double cap_scale);

struct ThrottleEvent {
  VdId vd;
  size_t step = 0;
  ThrottleTrigger trigger = ThrottleTrigger::kThroughput;
  double rar = 0.0;       // group-level resource availability for the trigger kind
  double wr_ratio = 0.0;  // of the throttled VD at this step, trigger kind units
};

struct ThrottleAnalysis {
  std::vector<ThrottleEvent> events;
  uint64_t throughput_events = 0;
  uint64_t iops_events = 0;
  // Per-event RAR samples split by resource kind.
  std::vector<double> rar_throughput;
  std::vector<double> rar_iops;
  // Per-event wr_ratio samples split by triggering kind.
  std::vector<double> wr_ratio_throughput;
  std::vector<double> wr_ratio_iops;
};

// Detects throttle events inside each sharing group using the offered per-VD
// load (pre-throttle demand).
ThrottleAnalysis AnalyzeThrottle(const Fleet& fleet, const std::vector<RwSeries>& offered_vd,
                                 const std::vector<SharingGroup>& groups,
                                 const ThrottleConfig& config);

// Theoretical reduction rate (Eq. 3) samples for a lending rate p, one sample
// per throttle event, split by resource kind. Throws std::invalid_argument for
// a lending_rate outside [0, 1].
struct ReductionRates {
  std::vector<double> throughput;
  std::vector<double> iops;
};
ReductionRates ComputeReductionRates(const Fleet& fleet,
                                     const std::vector<RwSeries>& offered_vd,
                                     const std::vector<SharingGroup>& groups,
                                     const ThrottleConfig& config, double lending_rate);

// Limited-lending simulation (Algorithm 2): steps an OnlineLendingSink over
// `offered_vd`, one group at a time. Returns one lending gain per group that
// experienced any throttling, in group order: (t_without - t_with) /
// (t_w/o + t_w). With at least one group, throws std::invalid_argument for a
// config the sink rejects (a zero period_steps, a lending_rate outside
// [0, 1], a cap_scale that is not finite and positive).
std::vector<double> SimulateLending(const Fleet& fleet,
                                    const std::vector<RwSeries>& offered_vd,
                                    const std::vector<SharingGroup>& groups,
                                    const ThrottleConfig& config);

// §5.3's "intuitive solution": separate read and write caps instead of the
// joint cap. `read_fraction` splits each VD's caps (oracle mode derives the
// per-VD fraction from its own historical read share — the accurate workload
// profile the paper says tenants rarely have).
enum class CapSplitMode : uint8_t {
  kJoint = 0,        // production behaviour: one cap for R+W
  kStaticSplit,      // caps split by a fleet-wide fixed read fraction
  kProfiledSplit,    // caps split per VD by its observed read share
};
const char* CapSplitModeName(CapSplitMode mode);

struct CapSplitResult {
  CapSplitMode mode = CapSplitMode::kJoint;
  uint64_t throttled_vd_seconds = 0;
  // Of which: seconds where only one op class exceeded its slice while the
  // *total* stayed under the joint cap — pure split-induced throttling.
  uint64_t split_induced_seconds = 0;
};

// Throws std::invalid_argument for a static_read_fraction outside [0, 1].
CapSplitResult EvaluateCapSplit(const Fleet& fleet, const std::vector<RwSeries>& offered_vd,
                                CapSplitMode mode, double static_read_fraction = 0.3,
                                double cap_scale = 1.0);

// Throttle backlog model. IOs over the cap "queue in the hypervisor" (§5):
// the backlog drains at the cap rate, so a burst of B extra bytes adds B/cap
// seconds of queueing delay to every IO behind it — the latency-spike effect
// Calcspar reports on AWS EBS. Returns, per VD with any backlog, the maximum
// queueing delay over the window (seconds). Throws std::invalid_argument for
// a lending_headroom_mbps that is not finite and non-negative.
struct BacklogResult {
  VdId vd;
  double max_delay_seconds = 0.0;
  double backlogged_seconds = 0.0;  // time with a non-empty queue
};
std::vector<BacklogResult> ComputeThrottleBacklog(const Fleet& fleet,
                                                  const std::vector<RwSeries>& offered_vd,
                                                  double cap_scale = 1.0,
                                                  double lending_headroom_mbps = 0.0);

}  // namespace ebs

#endif  // SRC_THROTTLE_THROTTLE_H_
