// Multi-tenant fairness under multi-WT hosting (§4.4).
//
// The paper's objection to naive per-IO dispatch: single-WT polling is
// implicitly fair (the WT serves each bound QP in turn), while a dispatch
// model lets one hot tenant flood every worker. This module makes that
// concrete with a finite-capacity queueing simulation per compute node:
// per-period tenant demand is served by WTs under three disciplines, and
// fairness is scored with Jain's index over per-tenant satisfaction.
//
//   kInlinePolling    — production single-WT hosting: QPs statically bound,
//                       each WT round-robins across its own QPs;
//   kGreedyDispatch   — per-IO dispatch to the least-loaded WT, FCFS across
//                       tenants (balances load, no isolation);
//   kDrrDispatch      — deficit-round-robin across tenant queues feeding the
//                       least-loaded WT (balances load AND isolates tenants).

#ifndef SRC_HYPERVISOR_FAIRNESS_H_
#define SRC_HYPERVISOR_FAIRNESS_H_

#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

enum class DispatchDiscipline : uint8_t {
  kInlinePolling = 0,
  kGreedyDispatch,
  kDrrDispatch,
};
const char* DispatchDisciplineName(DispatchDiscipline discipline);

struct FairnessConfig {
  // Per-WT service capacity in bytes per step; must be greater than 0 (+inf
  // means no contention). Contention only exists when node demand can exceed
  // wt_count * capacity.
  double wt_capacity_bytes_per_step = 50e6;
  DispatchDiscipline discipline = DispatchDiscipline::kInlinePolling;
};

struct FairnessResult {
  DispatchDiscipline discipline = DispatchDiscipline::kInlinePolling;
  // Jain's index over per-tenant satisfaction (served / demand) during
  // overloaded steps, averaged across nodes with >= 2 tenants. 1 = fair.
  double jain_index = 1.0;
  // Mean satisfaction of the non-hottest tenants during overload.
  double victim_satisfaction = 1.0;
  // Total served / total demanded bytes across all overloaded steps.
  double utilization = 1.0;
  size_t overloaded_steps = 0;
};

// Evaluates a discipline over every multi-tenant node, using the metric
// dataset's per-QP demand. Throws std::invalid_argument on a capacity that is
// not greater than 0 (NaN included).
FairnessResult EvaluateDispatchFairness(const Fleet& fleet, const MetricDataset& metrics,
                                        const FairnessConfig& config);

// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1 when all equal.
double JainIndex(const std::vector<double>& values);

}  // namespace ebs

#endif  // SRC_HYPERVISOR_FAIRNESS_H_
