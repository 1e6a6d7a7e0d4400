// Equivalence battery for the rollup folds.
//
// The RollupTo* folds must be BIT-identical to the legacy per-entity walk,
// not just close: every accumulator element sees the same addition sequence
// (QPs in fleet order, segments in ascending id order). These tests
// re-implement the legacy rollups inline (ordered map + per-entity
// RwSeries::Accumulate over materialized segment series) on a
// DcPreset-derived workload and compare with operator== on every double.
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/balancer/prediction.h"
#include "src/core/simulation.h"
#include "src/topology/fleet.h"
#include "src/trace/aggregate.h"
#include "src/trace/records.h"
#include "src/workload/generator.h"

namespace ebs {
namespace {

void ExpectSeriesBitIdentical(const RwSeries& got, const RwSeries& want, const char* level,
                              size_t entity) {
  ASSERT_EQ(got.read_bytes.size(), want.read_bytes.size()) << level << "[" << entity << "]";
  for (size_t t = 0; t < want.read_bytes.size(); ++t) {
    // Exact comparison on purpose: the SoA path promises an unchanged
    // addition order, so even the low mantissa bits must match.
    EXPECT_EQ(got.read_bytes[t], want.read_bytes[t]) << level << "[" << entity << "] t=" << t;
    EXPECT_EQ(got.write_bytes[t], want.write_bytes[t]) << level << "[" << entity << "] t=" << t;
    EXPECT_EQ(got.read_ops[t], want.read_ops[t]) << level << "[" << entity << "] t=" << t;
    EXPECT_EQ(got.write_ops[t], want.write_ops[t]) << level << "[" << entity << "] t=" << t;
  }
}

class RollupEquivalenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimulationConfig config = DcPreset(1);
    config.fleet.user_count = 40;  // DcPreset model at test-suite scale
    config.workload.window_steps = 180;
    fleet_ = new Fleet(BuildFleet(config.fleet));
    result_ = new WorkloadResult(WorkloadGenerator(*fleet_, config.workload).Generate());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete fleet_;
    result_ = nullptr;
    fleet_ = nullptr;
  }

  // Legacy compute-side rollup: per-entity RwSeries accumulated over QPs in
  // fleet order. This is verbatim the pre-SoA implementation.
  template <typename BucketOf>
  static std::vector<RwSeries> LegacyComputeRollup(size_t entities, BucketOf bucket_of) {
    const MetricDataset& metrics = result_->metrics;
    std::vector<RwSeries> out(entities, RwSeries(metrics.window_steps, metrics.step_seconds));
    for (const Qp& qp : fleet_->qps) {
      out[bucket_of(qp)].Accumulate(metrics.qp_series[qp.id.value()]);
    }
    return out;
  }

  // Legacy storage-side rollup: materialized segment series copied into an
  // ordered map (the sorted-key walk the old unordered_map path did
  // explicitly), then accumulated in ascending id order.
  template <typename BucketOf>
  static std::vector<RwSeries> LegacyStorageRollup(size_t entities, BucketOf bucket_of) {
    const MetricDataset& metrics = result_->metrics;
    const std::map<uint32_t, RwSeries> ordered = OrderedSegments(metrics);
    std::vector<RwSeries> out(entities, RwSeries(metrics.window_steps, metrics.step_seconds));
    for (const auto& [seg_value, series] : ordered) {
      out[bucket_of(fleet_->segments[seg_value])].Accumulate(series);
    }
    return out;
  }

  static std::map<uint32_t, RwSeries> OrderedSegments(const MetricDataset& metrics) {
    std::map<uint32_t, RwSeries> ordered;
    metrics.segment_series.ForEachSorted(
        [&ordered](uint32_t id, const RwSeries& series) { ordered.emplace(id, series); });
    return ordered;
  }

  static Fleet* fleet_;
  static WorkloadResult* result_;
};

Fleet* RollupEquivalenceFixture::fleet_ = nullptr;
WorkloadResult* RollupEquivalenceFixture::result_ = nullptr;

TEST_F(RollupEquivalenceFixture, ComputeSideRollupsMatchLegacyBitForBit) {
  const MetricDataset& metrics = result_->metrics;
  const auto vd_ref = LegacyComputeRollup(fleet_->vds.size(),
                                          [](const Qp& qp) { return qp.vd.value(); });
  const auto vd_got = RollupToVd(*fleet_, metrics);
  ASSERT_EQ(vd_got.size(), vd_ref.size());
  for (size_t e = 0; e < vd_ref.size(); ++e) {
    ExpectSeriesBitIdentical(vd_got[e], vd_ref[e], "vd", e);
  }

  const auto wt_ref = LegacyComputeRollup(fleet_->wts.size(),
                                          [](const Qp& qp) { return qp.bound_wt.value(); });
  const auto wt_got = RollupToWt(*fleet_, metrics);
  ASSERT_EQ(wt_got.size(), wt_ref.size());
  for (size_t e = 0; e < wt_ref.size(); ++e) {
    ExpectSeriesBitIdentical(wt_got[e], wt_ref[e], "wt", e);
  }

  const auto user_ref = LegacyComputeRollup(fleet_->users.size(), [](const Qp& qp) {
    return RollupEquivalenceFixture::fleet_->vms[qp.vm.value()].user.value();
  });
  const auto user_got = RollupToUser(*fleet_, metrics);
  ASSERT_EQ(user_got.size(), user_ref.size());
  for (size_t e = 0; e < user_ref.size(); ++e) {
    ExpectSeriesBitIdentical(user_got[e], user_ref[e], "user", e);
  }
}

TEST_F(RollupEquivalenceFixture, StorageSideRollupsMatchLegacyBitForBit) {
  const MetricDataset& metrics = result_->metrics;
  const auto bs_ref = LegacyStorageRollup(
      fleet_->block_servers.size(),
      [](const Segment& segment) { return segment.server.value(); });
  const auto bs_got = RollupToBlockServer(*fleet_, metrics);
  ASSERT_EQ(bs_got.size(), bs_ref.size());
  for (size_t e = 0; e < bs_ref.size(); ++e) {
    ExpectSeriesBitIdentical(bs_got[e], bs_ref[e], "bs", e);
  }

  const auto sn_ref = LegacyStorageRollup(fleet_->storage_nodes.size(), [](const Segment& s) {
    return RollupEquivalenceFixture::fleet_->block_servers[s.server.value()].node.value();
  });
  const auto sn_got = RollupToStorageNode(*fleet_, metrics);
  ASSERT_EQ(sn_got.size(), sn_ref.size());
  for (size_t e = 0; e < sn_ref.size(); ++e) {
    ExpectSeriesBitIdentical(sn_got[e], sn_ref[e], "sn", e);
  }
}

TEST_F(RollupEquivalenceFixture, VmAndComputeNodeRollupsMatchLegacyBitForBit) {
  const MetricDataset& metrics = result_->metrics;
  const auto vm_ref = LegacyComputeRollup(fleet_->vms.size(),
                                          [](const Qp& qp) { return qp.vm.value(); });
  const auto vm_got = RollupToVm(*fleet_, metrics);
  ASSERT_EQ(vm_got.size(), vm_ref.size());
  for (size_t e = 0; e < vm_ref.size(); ++e) {
    ExpectSeriesBitIdentical(vm_got[e], vm_ref[e], "vm", e);
    EXPECT_EQ(vm_got[e].read_bytes.step_seconds(), metrics.step_seconds);
  }

  const auto cn_ref = LegacyComputeRollup(fleet_->nodes.size(),
                                          [](const Qp& qp) { return qp.node.value(); });
  const auto cn_got = RollupToComputeNode(*fleet_, metrics);
  ASSERT_EQ(cn_got.size(), cn_ref.size());
  for (size_t e = 0; e < cn_ref.size(); ++e) {
    ExpectSeriesBitIdentical(cn_got[e], cn_ref[e], "cn", e);
  }
}

TEST_F(RollupEquivalenceFixture, BsPeriodTrafficMatchesLegacyMapWalk) {
  // The balancer's prediction input must be unchanged by the SegmentSeriesMap
  // conversion: recompute it with an explicit ordered-map walk.
  const MetricDataset& metrics = result_->metrics;
  const StorageClusterId cluster(0);
  const size_t period_steps = 60;
  const auto got = BsPeriodTraffic(*fleet_, metrics, cluster, period_steps);

  const StorageCluster& sc = fleet_->storage_clusters[cluster.value()];
  const size_t periods = metrics.window_steps / period_steps;
  std::vector<std::vector<double>> ref;
  std::vector<int> slot_of_bs(fleet_->block_servers.size(), -1);
  for (const StorageNodeId node_id : sc.nodes) {
    const BlockServerId bs = fleet_->storage_nodes[node_id.value()].block_server;
    slot_of_bs[bs.value()] = static_cast<int>(ref.size());
    ref.emplace_back(periods, 0.0);
  }
  for (const auto& [seg_value, series] : OrderedSegments(metrics)) {
    const Segment& segment = fleet_->segments[seg_value];
    const int slot = slot_of_bs[segment.server.value()];
    if (slot < 0) {
      continue;
    }
    const TimeSeries& bytes = series.write_bytes;
    for (size_t p = 0; p < periods; ++p) {
      double sum = 0.0;
      const size_t begin = p * period_steps;
      for (size_t t = begin; t < begin + period_steps && t < bytes.size(); ++t) {
        sum += bytes[t];
      }
      ref[static_cast<size_t>(slot)][p] += sum;
    }
  }
  // Same final stage as the production function: drop idle BSs, normalize
  // each surviving series by its own mean.
  std::vector<std::vector<double>> normalized;
  for (auto& series : ref) {
    double mean = 0.0;
    for (const double v : series) {
      mean += v;
    }
    mean /= static_cast<double>(series.size());
    if (mean <= 0.0) {
      continue;
    }
    for (double& v : series) {
      v /= mean;
    }
    normalized.push_back(std::move(series));
  }
  ref = std::move(normalized);

  ASSERT_EQ(got.size(), ref.size());
  for (size_t s = 0; s < ref.size(); ++s) {
    ASSERT_EQ(got[s].size(), ref[s].size());
    for (size_t p = 0; p < ref[s].size(); ++p) {
      EXPECT_EQ(got[s][p], ref[s][p]) << "bs slot " << s << " period " << p;
    }
  }
}

}  // namespace
}  // namespace ebs
