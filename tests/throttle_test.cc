// Tests for throttle detection, RAR/reduction-rate math and limited lending,
// on hand-built offered-load series.

#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/throttle/online_lending.h"
#include "src/throttle/throttle.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

// Offered series for a tiny fleet: all zero.
std::vector<RwSeries> MakeOffered(const Fleet& fleet, size_t steps) {
  return std::vector<RwSeries>(fleet.vds.size(), RwSeries(steps, 1.0));
}

TEST(GroupTest, MultiVdVmGroups) {
  const Fleet fleet = MakeTinyFleet({{{1, 1}}, {{1}}});
  const auto groups = MultiVdVmGroups(fleet);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].vds.size(), 2u);
}

TEST(GroupTest, MultiVmNodeGroupsRequireSameTenant) {
  // MakeTinyFleet assigns one user per VM, so no multi-VM groups exist.
  const Fleet fleet = MakeTinyFleet({{{1}}, {{1}}});
  EXPECT_TRUE(MultiVmNodeGroups(fleet).empty());
}

TEST(GroupTest, MultiVmNodeGroupsMergeTenantVds) {
  Fleet fleet = MakeTinyFleet({{{1}}, {{1, 1}}});
  // Re-own VM 1 by user 0 to create a co-located pair.
  fleet.vms[1].user = UserId(0);
  for (const VdId vd : fleet.vms[1].vds) {
    fleet.vds[vd.value()].user = UserId(0);
  }
  const auto groups = MultiVmNodeGroups(fleet);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].vds.size(), 3u);
}

class ThrottleFixture : public ::testing::Test {
 protected:
  ThrottleFixture()
      : fleet_(MakeTinyFleet({{{1, 1}}}, 4, 4, /*cap_mbps=*/100.0, /*cap_iops=*/10000.0)),
        offered_(MakeOffered(fleet_, 10)),
        groups_(MultiVdVmGroups(fleet_)) {}

  // Sets VD `v`'s offered load at step t.
  void Offer(size_t v, size_t t, double write_bytes, double write_ops) {
    offered_[v].write_bytes[t] = write_bytes;
    offered_[v].write_ops[t] = write_ops;
  }

  Fleet fleet_;
  std::vector<RwSeries> offered_;
  std::vector<SharingGroup> groups_;
};

TEST_F(ThrottleFixture, NoEventsBelowCaps) {
  Offer(0, 3, 50e6, 100.0);
  const auto analysis = AnalyzeThrottle(fleet_, offered_, groups_, {});
  EXPECT_TRUE(analysis.events.empty());
}

TEST_F(ThrottleFixture, ThroughputEventDetected) {
  Offer(0, 3, 150e6, 100.0);  // over the 100 MB/s cap
  Offer(1, 3, 10e6, 10.0);
  const auto analysis = AnalyzeThrottle(fleet_, offered_, groups_, {});
  ASSERT_EQ(analysis.events.size(), 1u);
  const ThrottleEvent& event = analysis.events[0];
  EXPECT_EQ(event.vd, VdId(0));
  EXPECT_EQ(event.step, 3u);
  EXPECT_EQ(event.trigger, ThrottleTrigger::kThroughput);
  // Group cap 200 MB/s; usage = min(150,100) + 10 = 110 -> RAR = 90/200.
  EXPECT_NEAR(event.rar, 0.45, 1e-9);
}

TEST_F(ThrottleFixture, IopsEventDetected) {
  Offer(0, 5, 1e6, 20000.0);  // over the 10k IOPS cap, under throughput
  const auto analysis = AnalyzeThrottle(fleet_, offered_, groups_, {});
  ASSERT_EQ(analysis.events.size(), 1u);
  EXPECT_EQ(analysis.events[0].trigger, ThrottleTrigger::kIops);
  EXPECT_EQ(analysis.iops_events, 1u);
  EXPECT_EQ(analysis.throughput_events, 0u);
}

TEST_F(ThrottleFixture, WrRatioPureWriteIsOne) {
  Offer(0, 2, 200e6, 100.0);
  const auto analysis = AnalyzeThrottle(fleet_, offered_, groups_, {});
  ASSERT_EQ(analysis.wr_ratio_throughput.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.wr_ratio_throughput[0], 1.0);
}

TEST_F(ThrottleFixture, WrRatioMixedTraffic) {
  offered_[0].read_bytes[2] = 60e6;
  offered_[0].write_bytes[2] = 60e6;
  const auto analysis = AnalyzeThrottle(fleet_, offered_, groups_, {});
  ASSERT_EQ(analysis.wr_ratio_throughput.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.wr_ratio_throughput[0], 0.0);
}

TEST_F(ThrottleFixture, CapScaleTightensCaps) {
  Offer(0, 1, 60e6, 100.0);  // under 100 MB/s, over 100*0.5 MB/s
  ThrottleConfig config;
  config.cap_scale = 0.5;
  const auto analysis = AnalyzeThrottle(fleet_, offered_, groups_, config);
  EXPECT_EQ(analysis.events.size(), 1u);
}

TEST_F(ThrottleFixture, ReductionRateFormula) {
  Offer(0, 3, 150e6, 100.0);
  Offer(1, 3, 10e6, 10.0);
  const auto rates = ComputeReductionRates(fleet_, offered_, groups_, {}, 0.5);
  ASSERT_EQ(rates.throughput.size(), 1u);
  // VD cap 100e6; AR = 0.45 * 200e6 = 90e6; RR = 100/(100+0.5*90).
  EXPECT_NEAR(rates.throughput[0], 100.0 / 145.0, 1e-9);
}

TEST_F(ThrottleFixture, ReductionRateDecreasesWithLendingRate) {
  Offer(0, 3, 150e6, 100.0);
  const double rr_small = ComputeReductionRates(fleet_, offered_, groups_, {}, 0.2)
                              .throughput[0];
  const double rr_large = ComputeReductionRates(fleet_, offered_, groups_, {}, 0.8)
                              .throughput[0];
  EXPECT_GT(rr_small, rr_large);
}

TEST_F(ThrottleFixture, LendingRemovesResolvableThrottle) {
  // VD0 wants 150 MB/s for a stretch, VD1 idle: lending VD1's headroom covers
  // the overshoot entirely (p = 0.8 -> extra 80 MB/s).
  for (size_t t = 1; t < 8; ++t) {
    Offer(0, t, 150e6, 100.0);
  }
  ThrottleConfig config;
  config.lending_rate = 0.8;
  config.period_steps = 10;
  const auto gains = SimulateLending(fleet_, offered_, groups_, config);
  ASSERT_EQ(gains.size(), 1u);
  // Baseline: 7 throttled seconds. With lending, the first second still
  // throttles (the loan lands at the first throttle), the rest are clear.
  EXPECT_GT(gains[0], 0.5);
}

TEST_F(ThrottleFixture, LendingCanBackfireWhenLenderBursts) {
  // VD0 throttles early; VD1 lends its headroom, then bursts to its own cap
  // and now throttles against the reduced cap.
  Offer(0, 1, 150e6, 100.0);
  for (size_t t = 3; t < 9; ++t) {
    Offer(1, t, 95e6, 100.0);  // below the original cap, above the lent-out cap
  }
  ThrottleConfig config;
  config.lending_rate = 0.8;
  config.period_steps = 10;
  const auto gains = SimulateLending(fleet_, offered_, groups_, config);
  ASSERT_EQ(gains.size(), 1u);
  EXPECT_LT(gains[0], 0.0);
}

TEST_F(ThrottleFixture, CapsResetEachPeriod) {
  // Lender bursts in the *next* period, after caps have been re-initialized:
  // no backfire.
  Offer(0, 1, 150e6, 100.0);
  Offer(1, 6, 95e6, 100.0);
  ThrottleConfig config;
  config.lending_rate = 0.8;
  config.period_steps = 5;
  const auto gains = SimulateLending(fleet_, offered_, groups_, config);
  ASSERT_EQ(gains.size(), 1u);
  EXPECT_GE(gains[0], 0.0);
}

TEST_F(ThrottleFixture, NoThrottleNoGainSample) {
  const auto gains = SimulateLending(fleet_, offered_, groups_, {});
  EXPECT_TRUE(gains.empty());
}

// A zero lending period used to divide by zero in the period check.
TEST_F(ThrottleFixture, ZeroPeriodIsRejectedByTheBatchSimulator) {
  ThrottleConfig config;
  config.period_steps = 0;
  EXPECT_THROW(SimulateLending(fleet_, offered_, groups_, config), std::invalid_argument);
  EXPECT_THROW(SimulateLending(fleet_, {}, groups_, config), std::invalid_argument);
}

TEST_F(ThrottleFixture, ZeroPeriodIsRejectedByTheOnlineSink) {
  ThrottleConfig config;
  config.period_steps = 0;
  EXPECT_THROW(OnlineLendingSink(groups_, config), std::invalid_argument);
}

TEST_F(ThrottleFixture, TrailingPartialPeriodThrottlesCount) {
  // 10 steps, period 4: periods [0, 4) and [4, 8), then a trailing partial
  // period [8, 10) whose throttled seconds count like any other.
  Offer(0, 1, 150e6, 100.0);  // throttles; VD1's 100 MB headroom: VD0 cap 180
  Offer(0, 2, 150e6, 100.0);  // baseline only
  Offer(0, 8, 150e6, 100.0);  // caps were reset at 8: throttles and lends again
  Offer(0, 9, 150e6, 100.0);  // baseline only
  Offer(1, 9, 30e6, 100.0);   // over VD1's lent-down 20 MB cap
  ThrottleConfig config;
  config.lending_rate = 0.8;
  config.period_steps = 4;

  OnlineLendingSink lending(groups_, config);
  const std::vector<RwSeries> no_qps;
  const SegmentSeriesMap no_segments;
  lending.OnStart(fleet_, offered_.front().read_bytes.size(), 1.0);
  for (size_t t = 0; t < offered_.front().read_bytes.size(); ++t) {
    lending.OnStepComplete({t, 1.0, no_qps, offered_, no_segments});
  }
  lending.OnFinish();
  EXPECT_EQ(lending.baseline_throttled_seconds(), 4u);
  EXPECT_EQ(lending.lending_throttled_seconds(), 3u);
  ASSERT_EQ(lending.gains().size(), 1u);
  EXPECT_DOUBLE_EQ(lending.gains()[0], 1.0 / 7.0);
  EXPECT_EQ(SimulateLending(fleet_, offered_, groups_, config), lending.gains());
}

TEST_F(ThrottleFixture, SetLendingRateGovernsOnlyLaterSteps) {
  // The loan at step 1 is made at p = 0.8 (VD0 cap 180 MB), so step 3 is
  // clear, although the rate drops to 0 mid-period after step 2.
  Offer(0, 1, 150e6, 100.0);
  Offer(0, 3, 150e6, 100.0);
  ThrottleConfig config;
  config.lending_rate = 0.8;
  config.period_steps = 10;
  OnlineLendingSink lending(groups_, config);
  const std::vector<RwSeries> no_qps;
  const SegmentSeriesMap no_segments;
  lending.OnStart(fleet_, offered_.front().read_bytes.size(), 1.0);
  for (size_t t = 0; t < offered_.front().read_bytes.size(); ++t) {
    if (t == 3) {
      lending.SetLendingRate(0.0);
    }
    lending.OnStepComplete({t, 1.0, no_qps, offered_, no_segments});
  }
  lending.OnFinish();
  EXPECT_EQ(lending.baseline_throttled_seconds(), 2u);
  EXPECT_EQ(lending.lending_throttled_seconds(), 1u);
}

TEST_F(ThrottleFixture, NonFiniteOrOutOfRangeLendingParametersAreRejected) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double rate : {kNan, kInf, -kInf, -0.1, 1.5}) {
    SCOPED_TRACE(rate);
    ThrottleConfig config;
    config.lending_rate = rate;
    EXPECT_THROW(OnlineLendingSink(groups_, config), std::invalid_argument);
    EXPECT_THROW(SimulateLending(fleet_, offered_, groups_, config), std::invalid_argument);
    EXPECT_THROW(ComputeReductionRates(fleet_, offered_, groups_, {}, rate),
                 std::invalid_argument);
    // The static split's read fraction is a fraction too.
    EXPECT_THROW(EvaluateCapSplit(fleet_, offered_, CapSplitMode::kStaticSplit, rate),
                 std::invalid_argument);
  }
  // A NaN or zero cap scale used to turn throttling off in the batch models
  // (DcPreset(1), 40 users, 120 steps: 0 events where 1.0 finds 93).
  for (const double scale : {kNan, kInf, -kInf, 0.0, -1.0}) {
    SCOPED_TRACE(scale);
    ThrottleConfig config;
    config.cap_scale = scale;
    EXPECT_THROW(OnlineLendingSink(groups_, config), std::invalid_argument);
    EXPECT_THROW(SimulateLending(fleet_, offered_, groups_, config), std::invalid_argument);
    EXPECT_THROW(AnalyzeThrottle(fleet_, offered_, groups_, config), std::invalid_argument);
    EXPECT_THROW(ComputeReductionRates(fleet_, offered_, groups_, config, 0.5),
                 std::invalid_argument);
    EXPECT_THROW(EvaluateCapSplit(fleet_, offered_, CapSplitMode::kJoint, 0.3, scale),
                 std::invalid_argument);
    EXPECT_THROW(ComputeThrottleBacklog(fleet_, offered_, scale), std::invalid_argument);
  }
  for (const double headroom : {kNan, kInf, -kInf, -1.0}) {
    SCOPED_TRACE(headroom);
    EXPECT_THROW(ComputeThrottleBacklog(fleet_, offered_, 1.0, headroom), std::invalid_argument);
  }
  // The closed loop's hook clamps a rate outside [0, 1] and rejects NaN.
  OnlineLendingSink lending(groups_, {});
  EXPECT_THROW(lending.SetLendingRate(kNan), std::invalid_argument);
  lending.SetLendingRate(1.5);
  EXPECT_EQ(lending.lending_rate(), 1.0);
  lending.SetLendingRate(-kInf);
  EXPECT_EQ(lending.lending_rate(), 0.0);
}

TEST(ResourceKindTest, Names) {
  EXPECT_STREQ(ResourceKindName(ResourceKind::kThroughput), "throughput");
  EXPECT_STREQ(ResourceKindName(ResourceKind::kIops), "IOPS");
}

TEST(BacklogTest, BurstDrainsAtCapRate) {
  const Fleet fleet = MakeTinyFleet({{{1}}}, 4, 4, /*cap_mbps=*/100.0);
  std::vector<RwSeries> offered(fleet.vds.size(), RwSeries(10, 1.0));
  // 300 MB arrives in one second against a 100 MB/s cap: 200 MB of backlog
  // (2 s of delay) drains over the next two seconds.
  offered[0].write_bytes[2] = 300e6;
  const auto results = ComputeThrottleBacklog(fleet, offered);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(results[0].max_delay_seconds, 2.0, 1e-9);
  EXPECT_NEAR(results[0].backlogged_seconds, 2.0, 1e-9);
}

TEST(BacklogTest, NoBacklogBelowCap) {
  const Fleet fleet = MakeTinyFleet({{{1}}}, 4, 4, /*cap_mbps=*/100.0);
  std::vector<RwSeries> offered(fleet.vds.size(), RwSeries(10, 1.0));
  offered[0].write_bytes[2] = 90e6;
  EXPECT_TRUE(ComputeThrottleBacklog(fleet, offered).empty());
}

TEST(BacklogTest, HeadroomShortensTheQueue) {
  const Fleet fleet = MakeTinyFleet({{{1}}}, 4, 4, /*cap_mbps=*/100.0);
  std::vector<RwSeries> offered(fleet.vds.size(), RwSeries(10, 1.0));
  offered[0].write_bytes[2] = 300e6;
  const auto base = ComputeThrottleBacklog(fleet, offered);
  const auto lent = ComputeThrottleBacklog(fleet, offered, 1.0, /*headroom=*/100.0);
  ASSERT_EQ(base.size(), 1u);
  ASSERT_EQ(lent.size(), 1u);
  EXPECT_LT(lent[0].max_delay_seconds, base[0].max_delay_seconds);
}

}  // namespace
}  // namespace ebs
