// Fleet: the full materialized EBS deployment used by every simulation.
//
// FleetBuilder synthesizes a scaled-down but structurally faithful deployment:
// heavy-tailed users (median 1 VM, largest tenants owning a sizeable slice of
// the fleet), VMs packed onto compute nodes (some bare-metal), VDs sized from
// a subscription catalog, QPs bound to worker threads round-robin (the
// paper's single-WT hosting), and segments striped across BlockServers with
// the same-VD-different-BS placement constraint.

#ifndef SRC_TOPOLOGY_FLEET_H_
#define SRC_TOPOLOGY_FLEET_H_

#include <cstdint>
#include <vector>

#include "src/topology/entities.h"
#include "src/util/rng.h"

namespace ebs {

struct FleetConfig {
  uint64_t seed = 42;

  uint32_t user_count = 100;

  // Entity sizing (lognormal parameters of the count distributions).
  double vms_per_user_mu = 0.0;     // median e^mu = 1 VM per user
  double vms_per_user_sigma = 1.1;  // heavy tail: top tenants own many VMs
  uint32_t vms_per_user_max = 400;
  double vds_per_vm_mu = 0.7;  // median ~2 VDs per VM
  double vds_per_vm_sigma = 0.8;
  uint32_t vds_per_vm_max = 64;

  // Compute side.
  uint32_t max_vms_per_node = 8;
  double bare_metal_user_fraction = 0.10;
  int wts_per_node = 4;  // the paper analyses 4-WT nodes

  // Storage side.
  uint32_t storage_cluster_count = 4;
  uint32_t storage_nodes_per_cluster = 24;

  // Application mix over VMs. Order follows AppType. Defaults approximate the
  // Table 4/5 population (BigData VMs are fewer but much larger).
  std::vector<double> app_vm_weights = {0.10, 0.30, 0.18, 0.05, 0.22, 0.15};
};

struct Fleet {
  FleetConfig config;

  std::vector<VdSpec> spec_catalog;

  std::vector<User> users;
  std::vector<Vm> vms;
  std::vector<Vd> vds;
  std::vector<Qp> qps;
  std::vector<ComputeNode> nodes;
  std::vector<WorkerThread> wts;

  std::vector<StorageCluster> storage_clusters;
  std::vector<StorageNode> storage_nodes;
  std::vector<BlockServer> block_servers;
  std::vector<Segment> segments;

  // Segment covering byte `offset` of `vd`. offset must be < capacity.
  SegmentId SegmentForOffset(VdId vd, uint64_t offset) const;

  uint64_t TotalCapacityBytes() const;
};

// The default subscription catalog (scaled-down analogue of public EBS tiers).
std::vector<VdSpec> DefaultSpecCatalog();

// Builds a fleet; deterministic in config.seed.
Fleet BuildFleet(const FleetConfig& config);

// Failover / re-replication candidates for a segment: every other
// BlockServer of the segment's cluster, starting after the primary in
// ascending ring order. BSs already hosting a sibling segment of the same VD
// (the same-VD-different-BS placement constraint) are pushed to the back of
// the list — they are used only when every spread-preserving candidate is
// unavailable. Deterministic, depends only on fleet structure.
std::vector<BlockServerId> FailoverCandidates(const Fleet& fleet, SegmentId segment);

// FailoverCandidates for many segments of one fleet. The constructor sorts
// each storage cluster's ring once; FailoverCandidates builds a planner per
// call, so FaultDriver, which resolves every segment of each crashing
// BlockServer, keeps one instead. The fleet must outlive the planner.
class FailoverPlanner {
 public:
  explicit FailoverPlanner(const Fleet& fleet);

  // FailoverCandidates(fleet, segment).
  std::vector<BlockServerId> Candidates(SegmentId segment);

 private:
  const Fleet& fleet_;
  std::vector<std::vector<uint32_t>> rings_;  // by cluster: its BSs, ascending id
  std::vector<uint32_t> vd_mark_;  // by BS id: 1 + id of the VD last marked there, or 0
  uint32_t last_mark_ = 0;         // the mark of the VD Candidates last marked
};

}  // namespace ebs

#endif  // SRC_TOPOLOGY_FLEET_H_
