#include "src/topology/fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/distributions.h"

namespace ebs {

SegmentId Fleet::SegmentForOffset(VdId vd, uint64_t offset) const {
  const Vd& disk = vds[vd.value()];
  assert(offset < disk.capacity_bytes);
  const uint64_t index = offset / kSegmentBytes;
  assert(index < disk.segments.size());
  return disk.segments[index];
}

uint64_t Fleet::TotalCapacityBytes() const {
  uint64_t total = 0;
  for (const Vd& vd : vds) {
    total += vd.capacity_bytes;
  }
  return total;
}

std::vector<VdSpec> DefaultSpecCatalog() {
  // Scaled-down analogue of public cloud tiers: capacity grows with the caps,
  // and only larger tiers expose multiple queue pairs.
  return {
      {"pl0-small", 64ULL * kGiB, 120.0, 10000.0, 1},
      {"pl0-medium", 128ULL * kGiB, 150.0, 15000.0, 1},
      {"pl1-small", 256ULL * kGiB, 250.0, 30000.0, 2},
      {"pl1-large", 512ULL * kGiB, 350.0, 50000.0, 2},
      {"pl2-small", 1024ULL * kGiB, 500.0, 80000.0, 4},
      {"pl2-large", 2048ULL * kGiB, 750.0, 100000.0, 4},
      {"pl3-small", 4096ULL * kGiB, 1000.0, 200000.0, 8},
      {"pl3-large", 8192ULL * kGiB, 1500.0, 300000.0, 8},
  };
}

namespace {

// Picks a spec index for a VD of an application class. Data-hungry classes
// lean toward bigger tiers; web/middleware toward smaller ones.
uint32_t SampleSpecIndex(Rng& rng, AppType app, size_t catalog_size) {
  double mu;
  switch (app) {
    case AppType::kBigData:
      mu = 5.0;
      break;
    case AppType::kDatabase:
      mu = 4.0;
      break;
    case AppType::kFileSystem:
      mu = 4.5;
      break;
    case AppType::kMiddleware:
      mu = 2.5;
      break;
    case AppType::kDocker:
      mu = 2.0;
      break;
    case AppType::kWebApp:
    default:
      mu = 1.5;
      break;
  }
  const double x = mu + 1.4 * rng.NextGaussian();
  const int64_t idx = std::llround(x);
  return static_cast<uint32_t>(
      std::clamp<int64_t>(idx, 0, static_cast<int64_t>(catalog_size) - 1));
}

}  // namespace

Fleet BuildFleet(const FleetConfig& config) {
  Fleet fleet;
  fleet.config = config;
  fleet.spec_catalog = DefaultSpecCatalog();
  Rng rng(config.seed);
  Rng placement_rng = rng.Fork(1);

  const CategoricalDistribution app_dist(config.app_vm_weights);

  // --- Storage side scaffolding -------------------------------------------
  for (uint32_t c = 0; c < config.storage_cluster_count; ++c) {
    StorageCluster cluster;
    cluster.id = StorageClusterId(c);
    for (uint32_t n = 0; n < config.storage_nodes_per_cluster; ++n) {
      const auto node_id = StorageNodeId(static_cast<uint32_t>(fleet.storage_nodes.size()));
      const auto bs_id = BlockServerId(node_id.value());
      StorageNode node;
      node.id = node_id;
      node.cluster = cluster.id;
      node.block_server = bs_id;
      node.chunk_server = ChunkServerId(node_id.value());
      cluster.nodes.push_back(node_id);
      fleet.storage_nodes.push_back(node);

      BlockServer bs;
      bs.id = bs_id;
      bs.node = node_id;
      bs.cluster = cluster.id;
      fleet.block_servers.push_back(bs);
    }
    fleet.storage_clusters.push_back(std::move(cluster));
  }

  // --- Compute-side helpers ------------------------------------------------
  // Open node accepting multi-tenant VMs; nullptr-like sentinel when full.
  ComputeNodeId open_node;
  uint32_t open_node_fill = 0;
  uint32_t open_node_capacity = 0;

  auto new_node = [&](bool bare_metal) {
    ComputeNode node;
    node.id = ComputeNodeId(static_cast<uint32_t>(fleet.nodes.size()));
    node.bare_metal = bare_metal;
    for (int w = 0; w < config.wts_per_node; ++w) {
      WorkerThread wt;
      wt.id = WorkerThreadId(static_cast<uint32_t>(fleet.wts.size()));
      wt.node = node.id;
      node.wts.push_back(wt.id);
      fleet.wts.push_back(wt);
    }
    fleet.nodes.push_back(node);
    return node.id;
  };

  auto place_vm = [&](bool bare_metal) -> ComputeNodeId {
    if (bare_metal) {
      return new_node(/*bare_metal=*/true);
    }
    if (!open_node.valid() || open_node_fill >= open_node_capacity) {
      open_node = new_node(/*bare_metal=*/false);
      open_node_fill = 0;
      open_node_capacity = static_cast<uint32_t>(
          placement_rng.NextInt(2, static_cast<int64_t>(config.max_vms_per_node)));
    }
    ++open_node_fill;
    return open_node;
  };

  // Per-cluster rotation cursor for segment placement.
  std::vector<uint32_t> cluster_cursor(config.storage_cluster_count, 0);

  // --- Users / VMs / VDs ----------------------------------------------------
  for (uint32_t u = 0; u < config.user_count; ++u) {
    User user;
    user.id = UserId(u);
    const bool bare_metal_user = rng.NextBool(config.bare_metal_user_fraction);
    const uint64_t vm_count = SampleCountLognormal(rng, config.vms_per_user_mu,
                                                   config.vms_per_user_sigma, 1,
                                                   config.vms_per_user_max);

    // Pin this tenant's VDs to one storage cluster (matches production, where
    // a VM's disks live in a nearby storage cluster).
    const uint32_t cluster_index =
        static_cast<uint32_t>(rng.NextBounded(config.storage_cluster_count));

    for (uint64_t v = 0; v < vm_count; ++v) {
      Vm vm;
      vm.id = VmId(static_cast<uint32_t>(fleet.vms.size()));
      vm.user = user.id;
      vm.app = static_cast<AppType>(app_dist.Sample(rng));
      vm.node = place_vm(bare_metal_user && v == 0);
      fleet.nodes[vm.node.value()].vms.push_back(vm.id);

      const uint64_t vd_count = SampleCountLognormal(rng, config.vds_per_vm_mu,
                                                     config.vds_per_vm_sigma, 1,
                                                     config.vds_per_vm_max);
      for (uint64_t d = 0; d < vd_count; ++d) {
        Vd vd;
        vd.id = VdId(static_cast<uint32_t>(fleet.vds.size()));
        vd.vm = vm.id;
        vd.user = user.id;
        vd.spec_index = SampleSpecIndex(rng, vm.app, fleet.spec_catalog.size());
        const VdSpec& spec = fleet.spec_catalog[vd.spec_index];
        vd.capacity_bytes = spec.capacity_bytes;
        vd.throughput_cap_mbps = spec.throughput_cap_mbps;
        vd.iops_cap = spec.iops_cap;

        // Queue pairs.
        for (int q = 0; q < spec.qp_count; ++q) {
          Qp qp;
          qp.id = QpId(static_cast<uint32_t>(fleet.qps.size()));
          qp.vd = vd.id;
          qp.vm = vm.id;
          qp.node = vm.node;
          vd.qps.push_back(qp.id);
          fleet.qps.push_back(qp);
        }

        // Segments: stripe across the tenant's storage cluster, never placing
        // two segments of one VD on the same BS unless the VD has more
        // segments than the cluster has servers.
        const uint64_t seg_count = (vd.capacity_bytes + kSegmentBytes - 1) / kSegmentBytes;
        const StorageCluster& cluster = fleet.storage_clusters[cluster_index];
        const uint32_t servers_in_cluster = static_cast<uint32_t>(cluster.nodes.size());
        uint32_t& cursor = cluster_cursor[cluster_index];
        for (uint64_t s = 0; s < seg_count; ++s) {
          Segment seg;
          seg.id = SegmentId(static_cast<uint32_t>(fleet.segments.size()));
          seg.vd = vd.id;
          seg.index_in_vd = static_cast<uint32_t>(s);
          const StorageNode& sn =
              fleet.storage_nodes[cluster.nodes[cursor % servers_in_cluster].value()];
          ++cursor;
          seg.server = sn.block_server;
          fleet.block_servers[seg.server.value()].segments.push_back(seg.id);
          vd.segments.push_back(seg.id);
          fleet.segments.push_back(seg);
        }

        vm.vds.push_back(vd.id);
        fleet.vds.push_back(std::move(vd));
      }
      user.vms.push_back(vm.id);
      fleet.vms.push_back(std::move(vm));
    }
    fleet.users.push_back(std::move(user));
  }

  // --- Hypervisor binding: round-robin QP -> WT per compute node (§2.2) ----
  std::vector<uint32_t> node_rr(fleet.nodes.size(), 0);
  for (Qp& qp : fleet.qps) {
    ComputeNode& node = fleet.nodes[qp.node.value()];
    uint32_t& cursor = node_rr[qp.node.value()];
    const WorkerThreadId wt_id = node.wts[cursor % node.wts.size()];
    ++cursor;
    qp.bound_wt = wt_id;
    fleet.wts[wt_id.value()].bound_qps.push_back(qp.id);
  }

  return fleet;
}

std::vector<BlockServerId> FailoverCandidates(const Fleet& fleet, SegmentId segment) {
  return FailoverPlanner(fleet).Candidates(segment);
}

FailoverPlanner::FailoverPlanner(const Fleet& fleet)
    : fleet_(fleet),
      rings_(fleet.storage_clusters.size()),
      vd_mark_(fleet.block_servers.size(), 0) {
  for (size_t c = 0; c < rings_.size(); ++c) {
    std::vector<uint32_t>& ring = rings_[c];
    ring.reserve(fleet.storage_clusters[c].nodes.size());
    for (const StorageNodeId node : fleet.storage_clusters[c].nodes) {
      ring.push_back(fleet.storage_nodes[node.value()].block_server.value());
    }
    std::sort(ring.begin(), ring.end());
  }
}

std::vector<BlockServerId> FailoverPlanner::Candidates(SegmentId segment) {
  const Segment& seg = fleet_.segments[segment.value()];
  const uint32_t primary = seg.server.value();
  const std::vector<uint32_t>& ring = rings_[fleet_.block_servers[primary].cluster.value()];

  // Sibling-hosting BSs: placing a second segment of the VD there would break
  // the same-VD-different-BS spread, so they rank last. Every BS hosting a
  // segment of the VD gets the VD's mark; the primary is one of them, which
  // is harmless because the walk skips it. A mark is only ever written to a
  // BS that hosts a segment of that VD, so a stale mark never misleads, and
  // consecutive segments of one VD reuse its marks.
  const uint32_t mark = seg.vd.value() + 1;
  if (last_mark_ != mark) {
    for (const SegmentId sibling : fleet_.vds[seg.vd.value()].segments) {
      vd_mark_[fleet_.segments[sibling.value()].server.value()] = mark;
    }
    last_mark_ = mark;
  }

  // The cluster's BSs in ascending id order form the ring; the walk starts
  // just after the primary, spread-preserving BSs first, then the sibling
  // hosts, each in ring order.
  const auto at = std::find(ring.begin(), ring.end(), primary);
  const size_t start = at == ring.end() ? 0 : static_cast<size_t>(at - ring.begin()) + 1;
  std::vector<BlockServerId> candidates;
  candidates.reserve(ring.size());
  for (const bool hosts_sibling : {false, true}) {
    for (size_t i = 0; i < ring.size(); ++i) {
      const uint32_t bs = ring[(start + i) % ring.size()];
      if (bs != primary && (vd_mark_[bs] == mark) == hosts_sibling) {
        candidates.push_back(BlockServerId(bs));
      }
    }
  }
  return candidates;
}

}  // namespace ebs
