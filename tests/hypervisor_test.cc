// Tests for the hypervisor analyses and rebinding/dispatch simulators using
// hand-built fleets with exactly-known traffic.

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/analysis/skewness.h"
#include "src/hypervisor/online_balance.h"
#include "src/hypervisor/rebinding.h"
#include "src/hypervisor/wt_balance.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

TEST(WtCovTest, BalancedTrafficHasZeroCov) {
  const Fleet fleet = MakeTinyFleet({{{1, 1, 1, 1}}}, /*wt_count=*/4);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  for (const Qp& qp : fleet.qps) {
    SetConstantWrite(metrics, qp.id, 100.0);
  }
  const auto samples = WtCovSamples(fleet, metrics, OpType::kWrite, 10);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0], 0.0, 1e-12);
}

TEST(WtCovTest, SingleHotQpHasCovOne) {
  const Fleet fleet = MakeTinyFleet({{{1, 1, 1, 1}}}, /*wt_count=*/4);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  SetConstantWrite(metrics, fleet.qps[0].id, 100.0);
  const auto samples = WtCovSamples(fleet, metrics, OpType::kWrite, 10);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0], 1.0, 1e-12);
}

TEST(WtCovTest, MultipleWindowsProduceMultipleSamples) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 20);
  SetConstantWrite(metrics, fleet.qps[0].id, 50.0);
  EXPECT_EQ(WtCovSamples(fleet, metrics, OpType::kWrite, 5).size(), 4u);
}

TEST(WtCovTest, IdleWindowsSkipped) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 20);
  metrics.qp_series[0].write_bytes[2] = 10.0;  // only the first window active
  EXPECT_EQ(WtCovSamples(fleet, metrics, OpType::kWrite, 10).size(), 1u);
}

// A zero CoV window used to divide by zero in the online sink and never
// advance the batch window loop.
TEST(WtCovTest, ZeroWindowIsRejectedByTheBatchAnalysis) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  const MetricDataset metrics = MakeEmptyMetrics(fleet, 20);
  EXPECT_THROW(WtCovSamples(fleet, metrics, OpType::kWrite, 0), std::invalid_argument);
}

TEST(WtCovTest, ZeroWindowIsRejectedByTheOnlineSink) {
  EXPECT_THROW(OnlineWtCovSink(OpType::kWrite, 0), std::invalid_argument);
}

TEST(ClassifyTest, TypeOneWhenFewerQpsThanWts) {
  // 2 QPs total on a 4-WT node.
  const Fleet fleet = MakeTinyFleet({{{1}}, {{1}}}, /*wt_count=*/4);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  SetConstantWrite(metrics, fleet.qps[0].id, 10.0);
  const auto summary = ClassifyNodes(fleet, metrics);
  EXPECT_EQ(summary.per_node[0].type, NodeSkewType::kTypeI);
  EXPECT_DOUBLE_EQ(summary.type1_fraction, 1.0);
}

TEST(ClassifyTest, TypeTwoWhenHottestVmHasSingleQp) {
  // VM0: one single-QP VD (hot); VM1: 4 single-QP VDs (cold). 5 QPs > 4 WTs.
  const Fleet fleet = MakeTinyFleet({{{1}}, {{1, 1, 1, 1}}}, /*wt_count=*/4);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  SetConstantWrite(metrics, fleet.qps[0].id, 1000.0);
  SetConstantWrite(metrics, fleet.qps[1].id, 10.0);
  const auto summary = ClassifyNodes(fleet, metrics);
  EXPECT_EQ(summary.per_node[0].type, NodeSkewType::kTypeII);
  EXPECT_EQ(summary.per_node[0].hottest_vm, VmId(0));
  EXPECT_NEAR(summary.per_node[0].hottest_vm_share, 1000.0 / 1010.0, 1e-9);
}

TEST(ClassifyTest, TypeThreeWhenHottestVmHasManyQps) {
  const Fleet fleet = MakeTinyFleet({{{4, 2}}}, /*wt_count=*/4);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  SetConstantWrite(metrics, fleet.qps[0].id, 500.0);
  const auto summary = ClassifyNodes(fleet, metrics);
  EXPECT_EQ(summary.per_node[0].type, NodeSkewType::kTypeIII);
}

TEST(ClassifyTest, IdleNodeExcluded) {
  const Fleet fleet = MakeTinyFleet({{{1}}}, /*wt_count=*/4);
  const MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  const auto summary = ClassifyNodes(fleet, metrics);
  EXPECT_EQ(summary.per_node[0].type, NodeSkewType::kIdle);
  EXPECT_DOUBLE_EQ(summary.type1_fraction, 0.0);
}

TEST(CovLadderTest, ComputesAllThreeLevels) {
  // Hottest VM: 2 VDs, one with 4 QPs (uneven), one with 1.
  const Fleet fleet = MakeTinyFleet({{{4, 1}}}, /*wt_count=*/4);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  SetConstantWrite(metrics, fleet.qps[0].id, 700.0);
  SetConstantWrite(metrics, fleet.qps[1].id, 100.0);
  SetConstantWrite(metrics, fleet.qps[4].id, 200.0);  // the single-QP VD
  const auto ladder = ComputeCovLadder(fleet, metrics, OpType::kWrite);
  ASSERT_EQ(ladder.vm2qp.size(), 1u);
  ASSERT_EQ(ladder.vm2vd.size(), 1u);
  ASSERT_EQ(ladder.vd2qp.size(), 1u);
  EXPECT_GT(ladder.vm2qp[0], 0.3);
  EXPECT_GT(ladder.vd2qp[0], 0.3);
  EXPECT_LT(ladder.vd2qp[0], 1.0);
}

TEST(HottestQpShareTest, ComputesShare) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  MetricDataset metrics = MakeEmptyMetrics(fleet, 10);
  SetConstantWrite(metrics, fleet.qps[0].id, 90.0);
  SetConstantWrite(metrics, fleet.qps[1].id, 10.0);
  const auto shares = HottestQpShares(fleet, metrics, OpType::kWrite);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_NEAR(shares[0], 0.9, 1e-12);
}

// --- Rebinding ---------------------------------------------------------------

TraceDataset MakeTraces(const Fleet& fleet, const std::vector<std::pair<double, QpId>>& ios,
                        double window_seconds, double bytes = 1000.0) {
  TraceDataset traces;
  traces.window_seconds = window_seconds;
  traces.sampling_rate = 1.0;
  for (const auto& [timestamp, qp] : ios) {
    TraceRecord r;
    r.timestamp = timestamp;
    r.op = OpType::kWrite;
    r.size_bytes = static_cast<uint32_t>(bytes);
    r.qp = qp;
    r.vd = fleet.qps[qp.value()].vd;
    r.vm = fleet.qps[qp.value()].vm;
    r.cn = fleet.qps[qp.value()].node;
    r.wt = fleet.qps[qp.value()].bound_wt;
    traces.records.push_back(r);
  }
  return traces;
}

TEST(RebindingTest, SingleHotQpCannotBeHelped) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  // All traffic from QP 0, spread over many periods.
  std::vector<std::pair<double, QpId>> ios;
  for (int t = 0; t < 100; ++t) {
    ios.emplace_back(0.05 + 0.1 * t, fleet.qps[0].id);
  }
  RebindingConfig config;
  config.period_seconds = 0.1;
  config.gain_window_seconds = 0.1;
  const auto results = SimulateRebinding(fleet, MakeTraces(fleet, ios, 10.0), config);
  ASSERT_EQ(results.size(), 1u);
  // Every active period triggers, yet the per-period balance never improves.
  EXPECT_GT(results[0].rebinding_ratio, 0.9);
  EXPECT_NEAR(results[0].gain, 1.0, 1e-9);
}

TEST(RebindingTest, TwoQpsOnOneWtGetSeparated) {
  // 4 QPs on 2 WTs: QPs 0 and 2 share WT0 and both are hot; rebinding should
  // improve longer-horizon balance.
  const Fleet fleet = MakeTinyFleet({{{1, 1, 1, 1}}}, /*wt_count=*/2);
  std::vector<std::pair<double, QpId>> ios;
  for (int t = 0; t < 200; ++t) {
    ios.emplace_back(0.02 + 0.05 * t, fleet.qps[0].id);
    ios.emplace_back(0.03 + 0.05 * t, fleet.qps[2].id);
  }
  RebindingConfig config;
  config.period_seconds = 0.05;
  config.gain_window_seconds = 1.0;
  const auto results = SimulateRebinding(fleet, MakeTraces(fleet, ios, 10.0), config);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_LT(results[0].gain, 0.7);
  EXPECT_LT(results[0].cov_after, results[0].cov_before);
}

TEST(RebindingTest, BalancedTrafficNeverTriggers) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  std::vector<std::pair<double, QpId>> ios;
  for (int t = 0; t < 50; ++t) {
    ios.emplace_back(0.01 + 0.2 * t, fleet.qps[0].id);
    ios.emplace_back(0.02 + 0.2 * t, fleet.qps[1].id);
  }
  RebindingConfig config;
  config.period_seconds = 0.2;
  const auto results = SimulateRebinding(fleet, MakeTraces(fleet, ios, 10.0), config);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].rebinding_ratio, 0.0);
}

TEST(RebindingTest, ActiveRatioReflectsOnlyBusyPeriods) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  // Traffic only in the first second of a 100 s window.
  std::vector<std::pair<double, QpId>> ios;
  for (int i = 0; i < 10; ++i) {
    ios.emplace_back(0.05 * i, fleet.qps[0].id);
  }
  RebindingConfig config;
  config.period_seconds = 0.1;
  const auto results = SimulateRebinding(fleet, MakeTraces(fleet, ios, 100.0), config);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_LT(results[0].rebinding_ratio, 0.01);
  EXPECT_GT(results[0].active_rebinding_ratio, 0.9);
}

TEST(RebindingTest, NonFiniteOrDegenerateParametersAreRejected) {
  // The period counts are ceil(window / x), cast to size_t. A zero or
  // 1e-300 period used to crash, and NaN or -1 threw an untyped
  // std::length_error; each is now std::invalid_argument before any work.
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  std::vector<std::pair<double, QpId>> ios;
  for (int t = 0; t < 20; ++t) {
    ios.emplace_back(0.05 + 0.1 * t, fleet.qps[t % 2].id);
  }
  const TraceDataset traces = MakeTraces(fleet, ios, 2.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double seconds : {0.0, -0.0, -1.0, 1e-300, nan, inf, -inf}) {
    RebindingConfig period;
    period.period_seconds = seconds;
    EXPECT_THROW(SimulateRebinding(fleet, traces, period), std::invalid_argument) << seconds;
    EXPECT_THROW(CompareHostingModels(fleet, traces, period), std::invalid_argument) << seconds;
    EXPECT_THROW(HottestWtPeriodSeries(fleet, traces, ComputeNodeId(0), seconds),
                 std::invalid_argument)
        << seconds;
    RebindingConfig gain;
    gain.gain_window_seconds = seconds;
    EXPECT_THROW(SimulateRebinding(fleet, traces, gain), std::invalid_argument) << seconds;
    EXPECT_THROW(CompareHostingModels(fleet, traces, gain), std::invalid_argument) << seconds;
  }
  for (const double ratio : {nan, inf, -inf, -1.0}) {
    RebindingConfig config;
    config.trigger_ratio = ratio;
    EXPECT_THROW(SimulateRebinding(fleet, traces, config), std::invalid_argument) << ratio;
    EXPECT_THROW(CompareHostingModels(fleet, traces, config), std::invalid_argument) << ratio;
  }
  // A window whose period count is not a number is rejected the same way.
  TraceDataset nan_window = traces;
  nan_window.window_seconds = nan;
  EXPECT_THROW(SimulateRebinding(fleet, nan_window, RebindingConfig{}), std::invalid_argument);
  EXPECT_THROW(HottestWtPeriodSeries(fleet, nan_window, ComputeNodeId(0), 0.1),
               std::invalid_argument);

  // A zero-second window still has one period for its records to land in;
  // it used to index a period table of size zero.
  TraceDataset no_window = traces;
  no_window.window_seconds = 0.0;
  EXPECT_EQ(HottestWtPeriodSeries(fleet, no_window, ComputeNodeId(0), 0.1).size(), 1u);
  EXPECT_EQ(SimulateRebinding(fleet, no_window, RebindingConfig{}).size(), 1u);
  EXPECT_EQ(CompareHostingModels(fleet, no_window, RebindingConfig{}).size(), 3u);

  // The edges stay valid: a zero trigger ratio, and a period longer than the
  // window (one period).
  RebindingConfig edges;
  edges.trigger_ratio = 0.0;
  edges.period_seconds = 5.0;
  EXPECT_EQ(SimulateRebinding(fleet, traces, edges).size(), 1u);
  EXPECT_EQ(CompareHostingModels(fleet, traces, edges).size(), 3u);
  EXPECT_EQ(HottestWtPeriodSeries(fleet, traces, ComputeNodeId(0), 5.0).size(), 1u);
}

TEST(DispatchTest, PerIoDispatchBalancesBest) {
  const Fleet fleet = MakeTinyFleet({{{1, 1, 1, 1}}}, /*wt_count=*/4);
  // Heavy skew: 80% of IOs from QP 0.
  std::vector<std::pair<double, QpId>> ios;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const QpId qp = rng.NextBool(0.8) ? fleet.qps[0].id
                                      : fleet.qps[1 + rng.NextBounded(3)].id;
    ios.emplace_back(rng.NextDouble() * 10.0, qp);
  }
  std::sort(ios.begin(), ios.end());
  RebindingConfig config;
  config.period_seconds = 0.1;
  config.gain_window_seconds = 10.0;
  const auto results = CompareHostingModels(fleet, MakeTraces(fleet, ios, 10.0), config);
  ASSERT_EQ(results.size(), 3u);
  const double static_cov = results[0].median_wt_cov;
  const double dispatch_cov = results[2].median_wt_cov;
  EXPECT_LT(dispatch_cov, static_cov * 0.2);
  EXPECT_DOUBLE_EQ(results[0].handoffs_per_io, 0.0);
  EXPECT_GT(results[2].handoffs_per_io, 0.0);
}

TEST(HottestWtSeriesTest, PicksHottestAndBucketsByPeriod) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}}, /*wt_count=*/2);
  std::vector<std::pair<double, QpId>> ios = {
      {0.5, fleet.qps[0].id}, {1.5, fleet.qps[0].id}, {1.6, fleet.qps[0].id},
      {0.2, fleet.qps[1].id},
  };
  std::sort(ios.begin(), ios.end());
  const auto series =
      HottestWtPeriodSeries(fleet, MakeTraces(fleet, ios, 3.0), ComputeNodeId(0), 1.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 1000.0);
  EXPECT_DOUBLE_EQ(series[1], 2000.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
}

}  // namespace
}  // namespace ebs
