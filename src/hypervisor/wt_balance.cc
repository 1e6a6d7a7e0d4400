#include "src/hypervisor/wt_balance.h"

#include <algorithm>

#include "src/hypervisor/online_balance.h"
#include "src/trace/aggregate.h"
#include "src/util/stats.h"

namespace ebs {

const char* NodeSkewTypeName(NodeSkewType type) {
  switch (type) {
    case NodeSkewType::kIdle:
      return "idle";
    case NodeSkewType::kTypeI:
      return "Type I";
    case NodeSkewType::kTypeII:
      return "Type II";
    case NodeSkewType::kTypeIII:
      return "Type III";
  }
  return "unknown";
}

std::vector<double> WtCovSamples(const Fleet& fleet, const MetricDataset& metrics, OpType op,
                                 size_t window_steps) {
  OnlineWtCovSink wt_cov(op, window_steps);
  const std::vector<RwSeries> no_offered;
  const SegmentSeriesMap no_segments;
  wt_cov.OnStart(fleet, metrics.window_steps, metrics.step_seconds);
  for (size_t t = 0; t < metrics.window_steps; ++t) {
    wt_cov.OnStepComplete({t, metrics.step_seconds, metrics.qp_series, no_offered, no_segments});
  }
  wt_cov.OnFinish();
  return wt_cov.samples();
}

namespace {

double SeriesTotal(const RwSeries& series) {
  return series.read_bytes.SumAll() + series.write_bytes.SumAll();
}

}  // namespace

NodeClassificationSummary ClassifyNodes(const Fleet& fleet, const MetricDataset& metrics) {
  NodeClassificationSummary summary;
  summary.per_node.resize(fleet.nodes.size());

  const std::vector<RwSeries> vm_series = RollupToVm(fleet, metrics);
  const std::vector<RwSeries> wt_series = RollupToWt(fleet, metrics);

  size_t classified = 0;
  size_t type_counts[3] = {0, 0, 0};
  size_t type1_bare_metal = 0;
  RunningStats hottest_vm_share[kOpTypeCount];
  RunningStats type2_wt_share[kOpTypeCount];

  for (const ComputeNode& node : fleet.nodes) {
    NodeClassification& cls = summary.per_node[node.id.value()];
    cls.bare_metal = node.bare_metal;

    // Node totals per op.
    double node_bytes[kOpTypeCount] = {0.0, 0.0};
    size_t qp_count = 0;
    for (const VmId vm_id : node.vms) {
      for (const VdId vd_id : fleet.vms[vm_id.value()].vds) {
        qp_count += fleet.vds[vd_id.value()].qps.size();
      }
      node_bytes[0] += vm_series[vm_id.value()].read_bytes.SumAll();
      node_bytes[1] += vm_series[vm_id.value()].write_bytes.SumAll();
    }
    const double node_total = node_bytes[0] + node_bytes[1];
    if (node_total <= 0.0) {
      cls.type = NodeSkewType::kIdle;
      continue;
    }
    ++classified;

    // Hottest VM by combined traffic.
    double hottest_total = -1.0;
    for (const VmId vm_id : node.vms) {
      const double total = SeriesTotal(vm_series[vm_id.value()]);
      if (total > hottest_total) {
        hottest_total = total;
        cls.hottest_vm = vm_id;
      }
    }
    cls.hottest_vm_share = hottest_total / node_total;
    for (const OpType op : {OpType::kRead, OpType::kWrite}) {
      const int i = static_cast<int>(op);
      if (node_bytes[i] > 0.0) {
        hottest_vm_share[i].Add(
            vm_series[cls.hottest_vm.value()].Bytes(op).SumAll() / node_bytes[i]);
      }
    }

    // Hottest WT share.
    double hottest_wt = 0.0;
    for (const WorkerThreadId wt : node.wts) {
      hottest_wt = std::max(hottest_wt, SeriesTotal(wt_series[wt.value()]));
    }
    cls.hottest_wt_share = hottest_wt / node_total;

    if (qp_count < node.wts.size()) {
      cls.type = NodeSkewType::kTypeI;
      ++type_counts[0];
      if (node.bare_metal) {
        ++type1_bare_metal;
      }
      continue;
    }

    // Count QPs of the hottest VM.
    size_t hottest_vm_qps = 0;
    for (const VdId vd_id : fleet.vms[cls.hottest_vm.value()].vds) {
      hottest_vm_qps += fleet.vds[vd_id.value()].qps.size();
    }
    if (hottest_vm_qps == 1) {
      cls.type = NodeSkewType::kTypeII;
      ++type_counts[1];
      if (node.wts.size() == 4) {
        for (const OpType op : {OpType::kRead, OpType::kWrite}) {
          const int i = static_cast<int>(op);
          if (node_bytes[i] <= 0.0) {
            continue;
          }
          double hottest_wt_op = 0.0;
          for (const WorkerThreadId wt : node.wts) {
            hottest_wt_op = std::max(hottest_wt_op, wt_series[wt.value()].Bytes(op).SumAll());
          }
          type2_wt_share[i].Add(hottest_wt_op / node_bytes[i]);
        }
      }
    } else {
      cls.type = NodeSkewType::kTypeIII;
      ++type_counts[2];
    }
  }

  if (classified > 0) {
    const double classified_d = static_cast<double>(classified);
    summary.type1_fraction = static_cast<double>(type_counts[0]) / classified_d;
    summary.type2_fraction = static_cast<double>(type_counts[1]) / classified_d;
    summary.type3_fraction = static_cast<double>(type_counts[2]) / classified_d;
  }
  if (type_counts[0] > 0) {
    summary.type1_bare_metal_fraction =
        static_cast<double>(type1_bare_metal) / static_cast<double>(type_counts[0]);
  }
  for (int i = 0; i < kOpTypeCount; ++i) {
    summary.mean_hottest_vm_share[i] = hottest_vm_share[i].mean();
    summary.mean_type2_hottest_wt_share[i] = type2_wt_share[i].mean();
  }
  return summary;
}

CovLadder ComputeCovLadder(const Fleet& fleet, const MetricDataset& metrics, OpType op) {
  CovLadder ladder;
  const std::vector<RwSeries> vm_series = RollupToVm(fleet, metrics);
  const std::vector<RwSeries> vd_series = RollupToVd(fleet, metrics);

  for (const ComputeNode& node : fleet.nodes) {
    // Hottest VM by this op's traffic.
    VmId hottest;
    double hottest_total = 0.0;
    for (const VmId vm_id : node.vms) {
      const double total = vm_series[vm_id.value()].Bytes(op).SumAll();
      if (total > hottest_total) {
        hottest_total = total;
        hottest = vm_id;
      }
    }
    if (!hottest.valid() || hottest_total <= 0.0) {
      continue;
    }
    const Vm& vm = fleet.vms[hottest.value()];

    // vm2qp: all QPs of the hottest VM.
    std::vector<double> qp_totals;
    for (const VdId vd_id : vm.vds) {
      for (const QpId qp_id : fleet.vds[vd_id.value()].qps) {
        qp_totals.push_back(metrics.qp_series[qp_id.value()].Bytes(op).SumAll());
      }
    }
    if (qp_totals.size() > 1) {
      ladder.vm2qp.push_back(NormalizedCoV(qp_totals));
    }

    // vm2vd.
    if (vm.vds.size() > 1) {
      std::vector<double> vd_totals;
      for (const VdId vd_id : vm.vds) {
        vd_totals.push_back(vd_series[vd_id.value()].Bytes(op).SumAll());
      }
      ladder.vm2vd.push_back(NormalizedCoV(vd_totals));
    }

    // vd2qp: per multi-QP VD of the hottest VM. VDs carrying a trivial sliver
    // of the VM's traffic are skipped — a disk that saw one short episode in
    // the window has a degenerate (== 1) CoV that says nothing about queue
    // usage.
    for (const VdId vd_id : vm.vds) {
      const Vd& vd = fleet.vds[vd_id.value()];
      const double vd_bytes = vd_series[vd_id.value()].Bytes(op).SumAll();
      if (vd.qps.size() < 2 || vd_bytes < 0.05 * hottest_total) {
        continue;
      }
      std::vector<double> totals;
      for (const QpId qp_id : vd.qps) {
        totals.push_back(metrics.qp_series[qp_id.value()].Bytes(op).SumAll());
      }
      ladder.vd2qp.push_back(NormalizedCoV(totals));
    }
  }
  return ladder;
}

std::vector<double> HottestQpShares(const Fleet& fleet, const MetricDataset& metrics,
                                    OpType op) {
  std::vector<double> shares;
  for (const ComputeNode& node : fleet.nodes) {
    double node_total = 0.0;
    double hottest = 0.0;
    for (const VmId vm_id : node.vms) {
      for (const VdId vd_id : fleet.vms[vm_id.value()].vds) {
        for (const QpId qp_id : fleet.vds[vd_id.value()].qps) {
          const double total = metrics.qp_series[qp_id.value()].Bytes(op).SumAll();
          node_total += total;
          hottest = std::max(hottest, total);
        }
      }
    }
    if (node_total > 0.0) {
      shares.push_back(hottest / node_total);
    }
  }
  return shares;
}

}  // namespace ebs
