// Equivalence battery for the rollup folds.
//
// The RollupTo* folds must be BIT-identical to the legacy per-entity walk,
// not just close: every accumulator element sees the same addition sequence
// (QPs in fleet order, segments in ascending id order), whichever chunk and
// thread filled it. These tests re-implement the legacy rollups inline
// (ordered map + per-entity RwSeries::Accumulate over materialized segment
// series) on a DcPreset-derived facade and compare every double's bits.
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/balancer/prediction.h"
#include "src/core/simulation.h"
#include "src/topology/fleet.h"
#include "src/trace/aggregate.h"
#include "src/trace/records.h"

namespace ebs {
namespace {

void ExpectChannelBitIdentical(const TimeSeries& got, const TimeSeries& want, const char* level,
                               size_t entity, const char* channel) {
  ASSERT_EQ(got.size(), want.size()) << level << "[" << entity << "] " << channel;
  EXPECT_EQ(got.step_seconds(), want.step_seconds()) << level << "[" << entity << "] " << channel;
  for (size_t t = 0; t < want.size(); ++t) {
    // Bits, not values: the chunked fold promises an unchanged addition
    // order, so even the low mantissa bits and the sign of a zero must match.
    EXPECT_EQ(std::bit_cast<uint64_t>(got[t]), std::bit_cast<uint64_t>(want[t]))
        << level << "[" << entity << "] " << channel << " t=" << t << ": " << got[t]
        << " != " << want[t];
  }
}

void ExpectSeriesBitIdentical(const RwSeries& got, const RwSeries& want, const char* level,
                              size_t entity) {
  ExpectChannelBitIdentical(got.read_bytes, want.read_bytes, level, entity, "read_bytes");
  ExpectChannelBitIdentical(got.write_bytes, want.write_bytes, level, entity, "write_bytes");
  ExpectChannelBitIdentical(got.read_ops, want.read_ops, level, entity, "read_ops");
  ExpectChannelBitIdentical(got.write_ops, want.write_ops, level, entity, "write_ops");
}

class RollupEquivalenceFixture : public ::testing::Test {
 protected:
  // 40 users over 600 steps: 708 QPs and 3,809 active segments, so every fold
  // splits into several chunks (at 2^16 series steps per chunk: VD 9, VM 8,
  // user 6, WT 8, CN 6, BS 29, SN 29 and the segment level 35).
  static void SetUpTestSuite() {
    SimulationConfig config = DcPreset(1);
    config.fleet.user_count = 40;
    config.workload.window_steps = 600;
    sim_ = new EbsSimulation(config);
    fleet_ = &sim_->fleet();
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
    fleet_ = nullptr;
  }

  // Legacy compute-side rollup: per-entity RwSeries accumulated over QPs in
  // fleet order. This is verbatim the pre-SoA implementation.
  template <typename BucketOf>
  static std::vector<RwSeries> LegacyComputeRollup(size_t entities, BucketOf bucket_of) {
    const MetricDataset& metrics = sim_->metrics();
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
    const MetricDataset& metrics = sim_->metrics();
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

  static EbsSimulation* sim_;
  static const Fleet* fleet_;
};

EbsSimulation* RollupEquivalenceFixture::sim_ = nullptr;
const Fleet* RollupEquivalenceFixture::fleet_ = nullptr;

TEST_F(RollupEquivalenceFixture, ComputeSideRollupsMatchLegacyBitForBit) {
  const MetricDataset& metrics = sim_->metrics();
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
  const MetricDataset& metrics = sim_->metrics();
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
  const MetricDataset& metrics = sim_->metrics();
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

TEST_F(RollupEquivalenceFixture, SegSeriesMatchesMaterializedSegmentsBitForBit) {
  const SegmentSeriesMap& segments = sim_->metrics().segment_series;
  const std::vector<RwSeries>& seg = sim_->SegSeries();
  ASSERT_EQ(seg.size(), segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    ExpectSeriesBitIdentical(seg[i], segments[i].Materialize(), "seg", i);
  }
}

// Conservation across layers: at every step, each channel's entity sum equals
// the QP sum (compute levels) or the segment-cell sum (storage levels), up to
// the rounding of a different addition order.
TEST_F(RollupEquivalenceFixture, EveryLevelConservesItsSourceCells) {
  const MetricDataset& metrics = sim_->metrics();
  const auto sum = [&metrics](const std::vector<RwSeries>& series) {
    RwSeries total(metrics.window_steps, metrics.step_seconds);
    for (const RwSeries& s : series) {
      // An entity left unfilled fails here instead of tripping Accumulate.
      EXPECT_EQ(s.read_bytes.size(), metrics.window_steps);
      if (s.read_bytes.size() == metrics.window_steps) {
        total.Accumulate(s);
      }
    }
    return total;
  };
  std::vector<RwSeries> cells;
  metrics.segment_series.ForEachSorted(
      [&cells](uint32_t, const RwSeries& series) { cells.push_back(series); });
  const RwSeries qp_total = sum(metrics.qp_series);
  const RwSeries cell_total = sum(cells);
  ASSERT_GT(qp_total.TotalBytes(), 0.0);

  const auto expect_conserved = [](const RwSeries& got, const RwSeries& want,
                                   const char* level) {
    const std::pair<const TimeSeries*, const TimeSeries*> channels[] = {
        {&got.read_bytes, &want.read_bytes},
        {&got.write_bytes, &want.write_bytes},
        {&got.read_ops, &want.read_ops},
        {&got.write_ops, &want.write_ops}};
    for (size_t c = 0; c < 4; ++c) {
      const TimeSeries& g = *channels[c].first;
      const TimeSeries& w = *channels[c].second;
      ASSERT_EQ(g.size(), w.size()) << level;
      for (size_t t = 0; t < w.size(); ++t) {
        EXPECT_NEAR(g[t], w[t], 1e-12 * std::abs(w[t])) << level << " channel " << c << " t=" << t;
      }
    }
  };
  expect_conserved(sum(sim_->VdSeries()), qp_total, "vd");
  expect_conserved(sum(sim_->VmSeries()), qp_total, "vm");
  expect_conserved(sum(sim_->UserSeries()), qp_total, "user");
  expect_conserved(sum(sim_->WtSeries()), qp_total, "wt");
  expect_conserved(sum(sim_->CnSeries()), qp_total, "cn");
  expect_conserved(sum(sim_->BsSeries()), cell_total, "bs");
  expect_conserved(sum(sim_->SnSeries()), cell_total, "sn");
  expect_conserved(sum(sim_->SegSeries()), cell_total, "seg");
}

TEST_F(RollupEquivalenceFixture, BsPeriodTrafficMatchesLegacyMapWalk) {
  // The balancer's prediction input must be unchanged by the SegmentSeriesMap
  // conversion: recompute it with an explicit ordered-map walk.
  const MetricDataset& metrics = sim_->metrics();
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
