// Hypervisor load-balancing analyses (§4.1-§4.2).
//
// Quantifies how skewed the worker threads are under the production
// round-robin QP->WT binding: WT-CoV at multiple time scales, the VM-VD-QP
// CoV ladder of §4.2, the hottest-QP traffic share, and the Type I/II/III
// node classification explaining the root causes.

#ifndef SRC_HYPERVISOR_WT_BALANCE_H_
#define SRC_HYPERVISOR_WT_BALANCE_H_

#include <vector>

#include "src/analysis/skewness.h"
#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

// Per-node WT-CoV samples at one time scale: for every compute node and every
// disjoint window of `window_steps`, the normalized CoV of the per-WT traffic
// accumulated in the window. Nodes/windows with zero traffic are skipped.
// Steps an OnlineWtCovSink over metrics.qp_series; throws
// std::invalid_argument when window_steps is 0.
std::vector<double> WtCovSamples(const Fleet& fleet, const MetricDataset& metrics, OpType op,
                                 size_t window_steps);

// §4.2 node taxonomy.
enum class NodeSkewType : uint8_t {
  kIdle = 0,         // no traffic at all in the window
  kTypeI,            // fewer QPs than WTs -> idle WTs
  kTypeII,           // hottest VM has a single QP in total
  kTypeIII,          // hottest VM spreads over multiple QPs (unevenly)
};
const char* NodeSkewTypeName(NodeSkewType type);

struct NodeClassification {
  NodeSkewType type = NodeSkewType::kIdle;
  bool bare_metal = false;
  VmId hottest_vm;
  double hottest_vm_share = 0.0;   // of the node's total traffic
  double hottest_wt_share = 0.0;   // of the node's total traffic
};

struct NodeClassificationSummary {
  std::vector<NodeClassification> per_node;  // indexed by ComputeNodeId
  // Fractions over classified (non-idle) nodes.
  double type1_fraction = 0.0;
  double type2_fraction = 0.0;
  double type3_fraction = 0.0;
  double type1_bare_metal_fraction = 0.0;  // of Type I nodes
  // Mean hottest-VM traffic share (read/write) over non-idle nodes.
  RwPair mean_hottest_vm_share = {};
  // Mean hottest-WT share on Type II nodes with exactly 4 WTs.
  RwPair mean_type2_hottest_wt_share = {};
};

NodeClassificationSummary ClassifyNodes(const Fleet& fleet, const MetricDataset& metrics);

// The §4.2 CoV ladder, evaluated on each node's hottest VM:
//   vm2qp — CoV across all QPs of the hottest VM;
//   vm2vd — CoV across the hottest VM's VDs;
//   vd2qp — CoV across QPs within each multi-QP VD of the hottest VM.
struct CovLadder {
  std::vector<double> vm2qp;
  std::vector<double> vm2vd;
  std::vector<double> vd2qp;
};
CovLadder ComputeCovLadder(const Fleet& fleet, const MetricDataset& metrics, OpType op);

// Fig 2(c): per-node traffic share of the hottest QP (nodes with traffic).
std::vector<double> HottestQpShares(const Fleet& fleet, const MetricDataset& metrics, OpType op);

}  // namespace ebs

#endif  // SRC_HYPERVISOR_WT_BALANCE_H_
