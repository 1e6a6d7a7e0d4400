// Hand-built miniature fleets and metric datasets for unit-testing the
// subsystem simulators with exactly-known inputs, a record-for-record trace
// comparison, and a fingerprint of every storage-domain cell.

#ifndef TESTS_TEST_HELPERS_H_
#define TESTS_TEST_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

struct TinyVmSpec {
  // One entry per VD: the number of QPs it exposes.
  std::vector<int> vd_qps;
};

// Builds a single-compute-node fleet: `wt_count` worker threads, one user per
// VM, QPs bound round-robin in creation order. Storage: one cluster with
// `storage_nodes` BlockServers; every VD is 64 GiB (2 segments) with caps
// taken from `cap_mbps` / `cap_iops`.
inline Fleet MakeTinyFleet(const std::vector<TinyVmSpec>& vm_specs, int wt_count = 4,
                           uint32_t storage_nodes = 4, double cap_mbps = 100.0,
                           double cap_iops = 10000.0) {
  Fleet fleet;
  fleet.spec_catalog = {{"tiny", 64ULL * kGiB, cap_mbps, cap_iops, 1}};

  StorageCluster cluster;
  cluster.id = StorageClusterId(0);
  for (uint32_t n = 0; n < storage_nodes; ++n) {
    StorageNode node;
    node.id = StorageNodeId(n);
    node.cluster = cluster.id;
    node.block_server = BlockServerId(n);
    node.chunk_server = ChunkServerId(n);
    cluster.nodes.push_back(node.id);
    fleet.storage_nodes.push_back(node);
    BlockServer bs;
    bs.id = BlockServerId(n);
    bs.node = node.id;
    bs.cluster = cluster.id;
    fleet.block_servers.push_back(bs);
  }
  fleet.storage_clusters.push_back(cluster);

  ComputeNode node;
  node.id = ComputeNodeId(0);
  for (int w = 0; w < wt_count; ++w) {
    WorkerThread wt;
    wt.id = WorkerThreadId(static_cast<uint32_t>(w));
    wt.node = node.id;
    node.wts.push_back(wt.id);
    fleet.wts.push_back(wt);
  }

  uint32_t seg_cursor = 0;
  for (size_t v = 0; v < vm_specs.size(); ++v) {
    User user;
    user.id = UserId(static_cast<uint32_t>(v));
    Vm vm;
    vm.id = VmId(static_cast<uint32_t>(v));
    vm.user = user.id;
    vm.node = node.id;
    node.vms.push_back(vm.id);
    for (const int qp_count : vm_specs[v].vd_qps) {
      Vd vd;
      vd.id = VdId(static_cast<uint32_t>(fleet.vds.size()));
      vd.vm = vm.id;
      vd.user = user.id;
      vd.capacity_bytes = 64ULL * kGiB;
      vd.throughput_cap_mbps = cap_mbps;
      vd.iops_cap = cap_iops;
      for (int q = 0; q < qp_count; ++q) {
        Qp qp;
        qp.id = QpId(static_cast<uint32_t>(fleet.qps.size()));
        qp.vd = vd.id;
        qp.vm = vm.id;
        qp.node = node.id;
        vd.qps.push_back(qp.id);
        fleet.qps.push_back(qp);
      }
      for (uint32_t s = 0; s < 2; ++s) {
        Segment seg;
        seg.id = SegmentId(static_cast<uint32_t>(fleet.segments.size()));
        seg.vd = vd.id;
        seg.index_in_vd = s;
        seg.server = BlockServerId(seg_cursor % storage_nodes);
        ++seg_cursor;
        fleet.block_servers[seg.server.value()].segments.push_back(seg.id);
        vd.segments.push_back(seg.id);
        fleet.segments.push_back(seg);
      }
      vm.vds.push_back(vd.id);
      fleet.vds.push_back(vd);
    }
    user.vms.push_back(vm.id);
    fleet.vms.push_back(vm);
    fleet.users.push_back(user);
  }
  fleet.nodes.push_back(node);

  // Round-robin QP binding.
  for (size_t q = 0; q < fleet.qps.size(); ++q) {
    const WorkerThreadId wt = fleet.nodes[0].wts[q % fleet.nodes[0].wts.size()];
    fleet.qps[q].bound_wt = wt;
    fleet.wts[wt.value()].bound_qps.push_back(fleet.qps[q].id);
  }
  return fleet;
}

// An all-zero metric dataset shaped for `fleet`.
inline MetricDataset MakeEmptyMetrics(const Fleet& fleet, size_t steps,
                                      double step_seconds = 1.0) {
  MetricDataset metrics;
  metrics.step_seconds = step_seconds;
  metrics.window_steps = steps;
  metrics.qp_series.assign(fleet.qps.size(), RwSeries(steps, step_seconds));
  return metrics;
}

// Sets a QP's write-byte series to a constant rate.
inline void SetConstantWrite(MetricDataset& metrics, QpId qp, double bytes_per_step) {
  TimeSeries& series = metrics.qp_series[qp.value()].write_bytes;
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = bytes_per_step;
  }
}

inline void SetConstantRead(MetricDataset& metrics, QpId qp, double bytes_per_step) {
  TimeSeries& series = metrics.qp_series[qp.value()].read_bytes;
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = bytes_per_step;
  }
}

// Every field of a trace record, as one comparable tuple.
inline auto RecordFields(const TraceRecord& r) {
  return std::make_tuple(r.timestamp, static_cast<int>(r.op), r.size_bytes, r.offset,
                         r.user.value(), r.vm.value(), r.vd.value(), r.qp.value(), r.wt.value(),
                         r.cn.value(), r.segment.value(), r.bs.value(), r.sn.value(),
                         r.latency.component_us, static_cast<int>(r.fault_retries),
                         r.fault_timed_out, r.fault_failed_over);
}

// Two trace streams are identical record for record, order included.
inline void ExpectSameRecords(const std::vector<TraceRecord>& a,
                              const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(RecordFields(a[i]), RecordFields(b[i])) << "record " << i;
  }
}

// Folds `size` bytes at `data` into the FNV-1a state `h`.
inline void FnvMix(uint64_t* h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *h = (*h ^ bytes[i]) * 1099511628211ULL;
  }
}

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

// FNV-1a over the bit patterns of `values`, in order.
inline uint64_t DoublesFingerprint(const std::vector<double>& values) {
  uint64_t h = kFnvOffsetBasis;
  FnvMix(&h, values.data(), values.size() * sizeof(double));
  return h;
}

// FNV-1a over every storage-domain cell: segments in ascending id, each as
// its id followed by the bit patterns of its read-bytes, write-bytes,
// read-ops and write-ops channels. Equal fingerprints mean bit-identical
// segment series.
inline uint64_t SegmentCellsFingerprint(const MetricDataset& metrics) {
  uint64_t h = kFnvOffsetBasis;
  const auto mix = [&h](const void* data, size_t size) { FnvMix(&h, data, size); };
  metrics.segment_series.ForEachSorted([&mix](uint32_t id, const RwSeries& series) {
    mix(&id, sizeof(id));
    for (const TimeSeries* channel :
         {&series.read_bytes, &series.write_bytes, &series.read_ops, &series.write_ops}) {
      mix(channel->values().data(), channel->size() * sizeof(double));
    }
  });
  return h;
}

}  // namespace ebs

#endif  // TESTS_TEST_HELPERS_H_
