// Fleet health report: the kind of daily digest an EBS operations team would
// pull from DiTing — hottest tenants and nodes, worker-thread balance, node
// skew taxonomy, and storage-cluster balance.
//
//   $ ./examples/fleet_report

#include <algorithm>
#include <iostream>
#include <vector>

#include "src/analysis/latency.h"
#include "src/analysis/skewness.h"
#include "src/core/simulation.h"
#include "src/hypervisor/wt_balance.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using ebs::OpType;
using ebs::TablePrinter;

void TopTenants(const ebs::EbsSimulation& sim) {
  const auto& users = sim.UserSeries();
  std::vector<std::pair<double, uint32_t>> ranked;
  double total = 0.0;
  for (uint32_t u = 0; u < users.size(); ++u) {
    const double bytes = users[u].TotalBytes();
    ranked.emplace_back(bytes, u);
    total += bytes;
  }
  std::sort(ranked.begin(), ranked.end(), std::greater<>());

  ebs::PrintBanner(std::cout, "Top 5 tenants by traffic");
  TablePrinter table({"Tenant", "VMs", "VDs", "Traffic (GB)", "Fleet share"});
  for (size_t i = 0; i < 5 && i < ranked.size(); ++i) {
    const ebs::User& user = sim.fleet().users[ranked[i].second];
    size_t vds = 0;
    for (const ebs::VmId vm : user.vms) {
      vds += sim.fleet().vms[vm.value()].vds.size();
    }
    table.AddRow({"user-" + std::to_string(user.id.value()),
                  std::to_string(user.vms.size()), std::to_string(vds),
                  TablePrinter::Fmt(ranked[i].first / 1e9, 1),
                  TablePrinter::FmtPercent(ranked[i].first / total)});
  }
  table.Print(std::cout);
}

void HotNodes(const ebs::EbsSimulation& sim) {
  const auto& nodes = sim.CnSeries();
  std::vector<std::pair<double, uint32_t>> ranked;
  for (uint32_t n = 0; n < nodes.size(); ++n) {
    ranked.emplace_back(nodes[n].TotalBytes(), n);
  }
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  const auto classification = ebs::ClassifyNodes(sim.fleet(), sim.metrics());

  ebs::PrintBanner(std::cout, "Hottest compute nodes");
  TablePrinter table({"Node", "Traffic (GB)", "Skew type", "Hottest-VM share",
                      "Hottest-WT share"});
  for (size_t i = 0; i < 5 && i < ranked.size(); ++i) {
    const auto& cls = classification.per_node[ranked[i].second];
    table.AddRow({"cn-" + std::to_string(ranked[i].second),
                  TablePrinter::Fmt(ranked[i].first / 1e9, 1), ebs::NodeSkewTypeName(cls.type),
                  TablePrinter::FmtPercent(cls.hottest_vm_share),
                  TablePrinter::FmtPercent(cls.hottest_wt_share)});
  }
  table.Print(std::cout);

  TablePrinter mix({"Skew type", "Share of loaded nodes"});
  mix.AddRow({"Type I (idle WTs)", TablePrinter::FmtPercent(classification.type1_fraction)});
  mix.AddRow({"Type II (single-QP hot VM)",
              TablePrinter::FmtPercent(classification.type2_fraction)});
  mix.AddRow({"Type III (multi-QP hot VM)",
              TablePrinter::FmtPercent(classification.type3_fraction)});
  mix.Print(std::cout);
}

void StorageBalance(const ebs::EbsSimulation& sim) {
  ebs::PrintBanner(std::cout, "Storage cluster balance (inter-BS CoV, read / write)");
  TablePrinter table({"Cluster", "BSs", "Active segments", "read CoV", "write CoV"});
  const auto& bs_series = sim.BsSeries();
  for (const ebs::StorageCluster& cluster : sim.fleet().storage_clusters) {
    std::vector<double> reads;
    std::vector<double> writes;
    size_t active = 0;
    for (const ebs::StorageNodeId node : cluster.nodes) {
      const ebs::BlockServer& bs =
          sim.fleet().block_servers[sim.fleet().storage_nodes[node.value()].block_server.value()];
      reads.push_back(bs_series[bs.id.value()].read_bytes.SumAll());
      writes.push_back(bs_series[bs.id.value()].write_bytes.SumAll());
      for (const ebs::SegmentId seg : bs.segments) {
        active += sim.metrics().SegmentSeries(seg).has_value() ? 1 : 0;
      }
    }
    table.AddRow({"cluster-" + std::to_string(cluster.id.value()),
                  std::to_string(cluster.nodes.size()), std::to_string(active),
                  TablePrinter::Fmt(ebs::NormalizedCoV(reads), 3),
                  TablePrinter::Fmt(ebs::NormalizedCoV(writes), 3)});
  }
  table.Print(std::cout);
}

void LatencyBreakdown(const ebs::EbsSimulation& sim) {
  const auto stats = ebs::AnalyzeComponentLatency(sim.traces());
  ebs::PrintBanner(std::cout, "End-to-end latency breakdown (mean share per component)");
  TablePrinter table({"Op", "p50 us", "p99 us", "CN", "front-net", "BS", "back-net", "CS"});
  for (int op = 0; op < ebs::kOpTypeCount; ++op) {
    std::vector<std::string> row = {ebs::OpTypeName(static_cast<ebs::OpType>(op)),
                                    TablePrinter::Fmt(stats.p50_us[op], 0),
                                    TablePrinter::Fmt(stats.p99_us[op], 0)};
    for (int c = 0; c < ebs::kStackComponentCount; ++c) {
      row.push_back(TablePrinter::FmtPercent(stats.mean_share[op][c]));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  ebs::EbsSimulation sim(ebs::DcPreset(1));
  std::cout << "EBS fleet report — " << sim.fleet().vms.size() << " VMs, "
            << sim.traces().records.size() << " sampled IOs.\n";
  TopTenants(sim);
  HotNodes(sim);
  StorageBalance(sim);
  LatencyBreakdown(sim);
  return 0;
}
