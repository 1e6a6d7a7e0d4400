// Fig 5 — balanced write but skewed read (§6.2).
//
//  (a) per-cluster inter-BS CoV of read vs write traffic (read above the
//      diagonal for nearly every cluster);
//  (b) histogram of the per-cluster median |wr_ratio| of top-traffic segments
//      (segments are read- xor write-dominant);
//  (c) per-period CoV under Write-Only vs Write-then-Read migration on the
//      busiest cluster with the Ideal importer.

#include <algorithm>
#include <iostream>

#include "src/analysis/skewness.h"
#include "src/balancer/balancer.h"
#include "src/core/simulation.h"
#include "src/obs/report.h"
#include "src/util/histogram.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using ebs::OpType;
using ebs::TablePrinter;

void Run() {
  ebs::EbsSimulation sim(ebs::StorageStudyPreset());
  const ebs::Fleet& fleet = sim.fleet();
  const ebs::MetricDataset& metrics = sim.metrics();
  const auto& bs_series = sim.BsSeries();

  // --- Fig 5(a): read vs write CoV per cluster --------------------------------
  ebs::PrintBanner(std::cout, "Fig 5(a): inter-BS CoV, read vs write, per cluster");
  TablePrinter cov_table({"Cluster", "write CoV", "read CoV", "read > write"});
  size_t above = 0;
  for (const ebs::StorageCluster& cluster : fleet.storage_clusters) {
    std::vector<double> read_totals;
    std::vector<double> write_totals;
    for (const ebs::StorageNodeId node : cluster.nodes) {
      const ebs::BlockServerId server = fleet.storage_nodes[node.value()].block_server;
      read_totals.push_back(bs_series[server.value()].read_bytes.SumAll());
      write_totals.push_back(bs_series[server.value()].write_bytes.SumAll());
    }
    const double read_cov = ebs::NormalizedCoV(read_totals);
    const double write_cov = ebs::NormalizedCoV(write_totals);
    if (read_cov >= write_cov) {
      ++above;
    }
    cov_table.AddRow({"cluster-" + std::to_string(cluster.id.value()),
                      TablePrinter::Fmt(write_cov, 3), TablePrinter::Fmt(read_cov, 3),
                      read_cov >= write_cov ? "yes" : "no"});
  }
  cov_table.Print(std::cout);
  std::cout << "Clusters with read-CoV >= write-CoV: " << above << "/"
            << fleet.storage_clusters.size() << " (paper: 96.8% of clusters).\n";

  // --- Fig 5(b): |wr_ratio| of top-traffic segments ---------------------------
  ebs::PrintBanner(std::cout, "Fig 5(b): per-cluster 50%ile |wr_ratio| of top-80%-traffic "
                              "segments");
  std::vector<double> cluster_medians;
  for (const ebs::StorageCluster& cluster : fleet.storage_clusters) {
    // Collect (traffic, |wr_ratio|) for the cluster's active segments.
    std::vector<std::pair<double, double>> segments;  // (total bytes, |wr|)
    metrics.segment_series.ForEachSorted([&](uint32_t seg_value, const ebs::RwSeries& series) {
      const ebs::Segment& segment = fleet.segments[seg_value];
      if (fleet.block_servers[segment.server.value()].cluster != cluster.id) {
        return;
      }
      const double write = series.write_bytes.SumAll();
      const double read = series.read_bytes.SumAll();
      if (write + read <= 0.0) {
        return;
      }
      segments.emplace_back(write + read, std::abs(ebs::WriteToReadRatio(write, read)));
    });
    std::sort(segments.begin(), segments.end(), std::greater<>());
    double total = 0.0;
    for (const auto& [traffic, wr] : segments) {
      total += traffic;
    }
    // Keep segments contributing the top 80% of traffic.
    std::vector<double> ratios;
    double cumulative = 0.0;
    for (const auto& [traffic, wr] : segments) {
      if (cumulative > 0.8 * total) {
        break;
      }
      cumulative += traffic;
      ratios.push_back(wr);
    }
    if (!ratios.empty()) {
      cluster_medians.push_back(ebs::Percentile(ratios, 50.0));
    }
  }
  size_t high = 0;
  for (const double median : cluster_medians) {
    if (median > 0.9) {
      ++high;
    }
  }
  std::cout << "Clusters with 50%ile |wr_ratio| > 0.9: " << high << "/"
            << cluster_medians.size() << " (paper: 85.2% — segments are read- or write-"
            << "dominant, so read and write migration do not interfere).\n";

  // --- Fig 5(c): Write-Only vs Write-then-Read migration ----------------------
  // As in §6.2.2: the cluster with the most frequent migrations under the
  // production balancer, Ideal importer.
  ebs::StorageClusterId busiest;
  double worst_thrash = -1.0;
  for (const ebs::StorageCluster& cluster : fleet.storage_clusters) {
    ebs::BalancerConfig probe;
    probe.policy = ebs::ImporterPolicy::kMinTraffic;
    ebs::InterBsBalancer balancer(fleet, metrics, cluster.id, probe);
    const auto result = balancer.Run();
    const double thrash = ebs::FrequentMigrationProportion(result.migrations, 1);
    if (thrash > worst_thrash) {
      worst_thrash = thrash;
      busiest = cluster.id;
    }
  }

  ebs::PrintBanner(std::cout, "Fig 5(c): per-period inter-BS CoV, Write-Only vs "
                              "Write-then-Read (Ideal importer)");
  TablePrinter mig_table({"Algorithm", "write CoV p50", "read CoV p50", "migrations"});
  for (const bool migrate_reads : {false, true}) {
    ebs::BalancerConfig config;
    config.policy = ebs::ImporterPolicy::kIdeal;
    config.migrate_reads = migrate_reads;
    ebs::InterBsBalancer balancer(fleet, metrics, busiest, config);
    const auto result = balancer.Run();
    mig_table.AddRow({migrate_reads ? "Write-then-Read" : "Write-Only",
                      TablePrinter::Fmt(ebs::Percentile(result.write_cov, 50), 3),
                      TablePrinter::Fmt(ebs::Percentile(result.read_cov, 50), 3),
                      std::to_string(result.migrations.size())});
  }
  mig_table.Print(std::cout);
  std::cout << "Paper: Write-then-Read sharply reduces read skew and, surprisingly, also "
               "slightly improves write balance.\n";
}

}  // namespace

int main() {
  ebs::obs::InitRunReportFromEnv();
  Run();
  ebs::obs::EmitRunReport(std::cout);
  return 0;
}
