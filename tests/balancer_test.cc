// Tests for the inter-BS balancer (Algorithm 1) on hand-built segment
// traffic.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/balancer/balancer.h"
#include "src/balancer/prediction.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

// A fleet whose VDs each contribute two segments striped over 4 BSs.
class BalancerFixture : public ::testing::Test {
 protected:
  BalancerFixture()
      : fleet_(MakeTinyFleet({{{1}}, {{1}}, {{1}}, {{1}}}, 4, 4)),
        metrics_(MakeEmptyMetrics(fleet_, 60)) {}

  // Constant write rate for one segment.
  void SetSegmentWrite(SegmentId segment, double bytes_per_step) {
    TimeSeries& series = metrics_.MutableSegmentSeries(segment).write_bytes;
    for (size_t t = 0; t < series.size(); ++t) {
      series[t] = bytes_per_step;
    }
  }
  void SetSegmentRead(SegmentId segment, double bytes_per_step) {
    TimeSeries& series = metrics_.MutableSegmentSeries(segment).read_bytes;
    for (size_t t = 0; t < series.size(); ++t) {
      series[t] = bytes_per_step;
    }
  }

  BlockServerId ServerOf(SegmentId segment) const {
    return fleet_.segments[segment.value()].server;
  }

  Fleet fleet_;
  MetricDataset metrics_;
};

TEST_F(BalancerFixture, BalancedClusterNeverMigrates) {
  // One equally-hot segment per BS.
  for (uint32_t s = 0; s < 4; ++s) {
    // Segments are striped round-robin, so segments 0..3 land on BS 0..3.
    SetSegmentWrite(SegmentId(s), 100.0);
  }
  BalancerConfig config;
  config.period_steps = 10;
  InterBsBalancer balancer(fleet_, metrics_, StorageClusterId(0), config);
  const auto result = balancer.Run();
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_EQ(result.periods, 6u);
  for (const double cov : result.write_cov) {
    EXPECT_NEAR(cov, 0.0, 1e-12);
  }
}

TEST_F(BalancerFixture, HotServerExportsToColdest) {
  // BS0 hosts two hot segments (segments 0 and 4); BS1..BS3 mild.
  SetSegmentWrite(SegmentId(0), 500.0);
  SetSegmentWrite(SegmentId(4), 400.0);
  SetSegmentWrite(SegmentId(1), 100.0);
  SetSegmentWrite(SegmentId(2), 120.0);
  SetSegmentWrite(SegmentId(3), 50.0);  // BS3 is the coldest
  ASSERT_EQ(ServerOf(SegmentId(0)), ServerOf(SegmentId(4)));

  BalancerConfig config;
  config.period_steps = 10;
  config.policy = ImporterPolicy::kMinTraffic;
  config.enforce_vd_spread = false;
  InterBsBalancer balancer(fleet_, metrics_, StorageClusterId(0), config);
  const auto result = balancer.Run();
  ASSERT_FALSE(result.migrations.empty());
  const Migration& first = result.migrations.front();
  EXPECT_EQ(first.from, ServerOf(SegmentId(0)));
  EXPECT_EQ(first.to, ServerOf(SegmentId(3)));
  // Balancing reduces the CoV over time.
  EXPECT_LT(result.write_cov.back(), result.write_cov.front());
}

TEST_F(BalancerFixture, VdSpreadConstraintExcludesSiblingHosts) {
  // VD0's sibling segment (id 1) lives on BS1; with the constraint on, BS1
  // must never import VD0's segment 0 even if it is the coldest.
  SetSegmentWrite(SegmentId(0), 500.0);
  SetSegmentWrite(SegmentId(4), 400.0);
  SetSegmentWrite(SegmentId(2), 200.0);
  SetSegmentWrite(SegmentId(3), 200.0);
  // BS1 (hosting sibling segment 1) is the coldest.
  BalancerConfig config;
  config.period_steps = 10;
  config.policy = ImporterPolicy::kMinTraffic;
  config.enforce_vd_spread = true;
  InterBsBalancer balancer(fleet_, metrics_, StorageClusterId(0), config);
  const auto result = balancer.Run();
  for (const Migration& m : result.migrations) {
    if (m.segment == SegmentId(0)) {
      EXPECT_NE(m.to, ServerOf(SegmentId(1)));
    }
  }
}

TEST_F(BalancerFixture, ReadPassOnlyRunsWhenEnabled) {
  // Two read-hot segments share BS0 (segments 0 and 4): separating them is a
  // genuine improvement (a single dominant segment could only be relabeled).
  SetSegmentRead(SegmentId(0), 500.0);
  SetSegmentRead(SegmentId(4), 450.0);
  SetSegmentRead(SegmentId(1), 10.0);
  SetSegmentRead(SegmentId(2), 10.0);
  SetSegmentRead(SegmentId(3), 10.0);
  // Give every segment a balanced write load so the write pass is quiet.
  for (uint32_t s = 0; s < 4; ++s) {
    SetSegmentWrite(SegmentId(s), 100.0);
  }
  BalancerConfig write_only;
  write_only.period_steps = 10;
  InterBsBalancer a(fleet_, metrics_, StorageClusterId(0), write_only);
  EXPECT_TRUE(a.Run().migrations.empty());

  BalancerConfig with_reads = write_only;
  with_reads.migrate_reads = true;
  with_reads.enforce_vd_spread = false;
  InterBsBalancer b(fleet_, metrics_, StorageClusterId(0), with_reads);
  const auto result = b.Run();
  ASSERT_FALSE(result.migrations.empty());
  size_t read_basis = 0;
  for (const Migration& m : result.migrations) {
    read_basis += m.basis == OpType::kRead ? 1 : 0;
  }
  // The read pass triggers the bulk of the migrations; moving a read-hot
  // segment may disturb write balance and cause follow-up write migrations,
  // which is exactly the interference discussed in the paper's 6.2.
  EXPECT_GT(read_basis, 0u);
  EXPECT_LT(result.read_cov.back(), result.read_cov.front());
}

TEST_F(BalancerFixture, PredictivePolicyUsesInjectedPredictor) {
  SetSegmentWrite(SegmentId(0), 500.0);
  SetSegmentWrite(SegmentId(4), 400.0);
  SetSegmentWrite(SegmentId(1), 100.0);
  SetSegmentWrite(SegmentId(2), 100.0);
  SetSegmentWrite(SegmentId(3), 100.0);
  BalancerConfig config;
  config.period_steps = 10;
  config.policy = ImporterPolicy::kPredictive;
  config.enforce_vd_spread = false;
  config.predictor_factory = [] { return MakeLastValuePredictor(); };
  InterBsBalancer balancer(fleet_, metrics_, StorageClusterId(0), config);
  EXPECT_FALSE(balancer.Run().migrations.empty());
}

TEST_F(BalancerFixture, SegmentForecastSeparatesHotPair) {
  SetSegmentWrite(SegmentId(0), 500.0);
  SetSegmentWrite(SegmentId(4), 400.0);
  SetSegmentWrite(SegmentId(1), 100.0);
  BalancerConfig config;
  config.period_steps = 10;
  config.policy = ImporterPolicy::kSegmentForecast;
  config.enforce_vd_spread = false;
  InterBsBalancer balancer(fleet_, metrics_, StorageClusterId(0), config);
  const auto result = balancer.Run();
  ASSERT_FALSE(result.migrations.empty());
  EXPECT_LT(result.write_cov.back(), result.write_cov.front());
}

TEST_F(BalancerFixture, IdealPolicyRuns) {
  SetSegmentWrite(SegmentId(0), 500.0);
  SetSegmentWrite(SegmentId(4), 400.0);
  SetSegmentWrite(SegmentId(1), 100.0);
  BalancerConfig config;
  config.period_steps = 10;
  config.policy = ImporterPolicy::kIdeal;
  config.enforce_vd_spread = false;
  InterBsBalancer balancer(fleet_, metrics_, StorageClusterId(0), config);
  const auto result = balancer.Run();
  EXPECT_FALSE(result.migrations.empty());
  EXPECT_LT(result.write_cov.back(), result.write_cov.front());
}

// A zero period used to divide by zero while sizing the run, and a NaN
// threshold or budget used to run and silently never migrate.
TEST_F(BalancerFixture, BadConfigIsRejected) {
  BalancerConfig zero_period;
  zero_period.period_steps = 0;
  EXPECT_THROW(InterBsBalancer(fleet_, metrics_, StorageClusterId(0), zero_period),
               std::invalid_argument);
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(), -0.5}) {
    BalancerConfig threshold;
    threshold.exporter_threshold = bad;
    EXPECT_THROW(InterBsBalancer(fleet_, metrics_, StorageClusterId(0), threshold),
                 std::invalid_argument)
        << bad;
    BalancerConfig budget;
    budget.migration_budget = bad;
    EXPECT_THROW(InterBsBalancer(fleet_, metrics_, StorageClusterId(0), budget),
                 std::invalid_argument)
        << bad;
  }
  BalancerConfig zero_thresholds;
  zero_thresholds.period_steps = 10;
  zero_thresholds.exporter_threshold = 0.0;
  zero_thresholds.migration_budget = 0.0;
  EXPECT_NO_THROW(InterBsBalancer(fleet_, metrics_, StorageClusterId(0), zero_thresholds).Run());
  // A NaN alpha used to run (S7 then migrated on NaN forecasts), and so did
  // alphas outside [0, 1].
  for (const double bad : {std::nan(""), -1.0, -0.01, 1.01, 2.0,
                           std::numeric_limits<double>::infinity()}) {
    BalancerConfig alpha;
    alpha.policy = ImporterPolicy::kSegmentForecast;
    alpha.segment_ewma_alpha = bad;
    EXPECT_THROW(InterBsBalancer(fleet_, metrics_, StorageClusterId(0), alpha),
                 std::invalid_argument)
        << bad;
  }
  for (const double edge : {0.0, 1.0}) {
    BalancerConfig alpha;
    alpha.period_steps = 10;
    alpha.policy = ImporterPolicy::kSegmentForecast;
    alpha.segment_ewma_alpha = edge;
    EXPECT_NO_THROW(InterBsBalancer(fleet_, metrics_, StorageClusterId(0), alpha).Run()) << edge;
  }
}

// A cluster id past the fleet's clusters used to index out of bounds.
TEST_F(BalancerFixture, UnknownClusterIsRejected) {
  const StorageClusterId unknown(static_cast<uint32_t>(fleet_.storage_clusters.size()));
  EXPECT_THROW(InterBsBalancer(fleet_, metrics_, unknown, BalancerConfig{}),
               std::invalid_argument);
  EXPECT_THROW(BsPeriodTraffic(fleet_, metrics_, unknown, 5), std::invalid_argument);
}

TEST_F(BalancerFixture, PredictionRejectsZeroPeriodAndEpoch) {
  SetSegmentWrite(SegmentId(0), 100.0);
  SetSegmentWrite(SegmentId(1), 50.0);
  EXPECT_THROW(BsPeriodTraffic(fleet_, metrics_, StorageClusterId(0), 0), std::invalid_argument);
  PredictionExperimentConfig zero_period;
  zero_period.period_steps = 0;
  EXPECT_THROW(RunPredictionExperiment(fleet_, metrics_, StorageClusterId(0), zero_period),
               std::invalid_argument);
  for (const int epochs : {0, -1}) {
    PredictionExperimentConfig bad_epoch;
    bad_epoch.warmup_periods = 2;
    bad_epoch.epoch_periods = epochs;
    EXPECT_THROW(RunPredictionExperiment(fleet_, metrics_, StorageClusterId(0), bad_epoch),
                 std::invalid_argument)
        << epochs;
  }
}

TEST(MigrationStatsTest, ZeroWindowIsRejected) {
  const std::vector<Migration> migrations = {
      {SegmentId(0), BlockServerId(0), BlockServerId(1), 0, OpType::kWrite},
  };
  EXPECT_THROW(FrequentMigrationProportion(migrations, 0), std::invalid_argument);
  EXPECT_THROW(FrequentMigrationProportion({}, 0), std::invalid_argument);
}

TEST(MigrationStatsTest, FrequentMigrationDetection) {
  // BS 1 both imports (m0) and exports (m1) in window 0 -> both migrations
  // touching BS1's window are frequent; the far-away m2 is not.
  std::vector<Migration> migrations = {
      {SegmentId(0), BlockServerId(0), BlockServerId(1), 0, OpType::kWrite},
      {SegmentId(1), BlockServerId(1), BlockServerId(2), 1, OpType::kWrite},
      {SegmentId(2), BlockServerId(3), BlockServerId(0), 9, OpType::kWrite},
  };
  EXPECT_NEAR(FrequentMigrationProportion(migrations, 2), 2.0 / 3.0, 1e-12);
  // With 1-period windows, the import and export land in different windows.
  EXPECT_DOUBLE_EQ(FrequentMigrationProportion(migrations, 1), 0.0);
  EXPECT_DOUBLE_EQ(FrequentMigrationProportion({}, 1), 0.0);
}

TEST(MigrationStatsTest, IntervalsPerSegment) {
  std::vector<Migration> migrations = {
      {SegmentId(0), BlockServerId(0), BlockServerId(1), 2, OpType::kWrite},
      {SegmentId(0), BlockServerId(1), BlockServerId(2), 7, OpType::kWrite},
      {SegmentId(0), BlockServerId(2), BlockServerId(3), 17, OpType::kWrite},
      {SegmentId(1), BlockServerId(0), BlockServerId(1), 3, OpType::kWrite},
  };
  const auto intervals = MigrationIntervals(migrations, 100);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0], 0.05);
  EXPECT_DOUBLE_EQ(intervals[1], 0.10);
}

TEST(ImporterPolicyTest, NamesDistinct) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(ImporterPolicy::kSegmentForecast); ++i) {
    names.insert(ImporterPolicyName(static_cast<ImporterPolicy>(i)));
  }
  EXPECT_EQ(names.size(), 7u);
}

}  // namespace
}  // namespace ebs
