// Tests for the multi-WT dispatch fairness model (§4.4).

#include "src/hypervisor/fairness.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "tests/test_helpers.h"

namespace ebs {
namespace {

TEST(JainTest, EqualSharesAreFair) {
  EXPECT_DOUBLE_EQ(JainIndex({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({0.0, 0.0}), 1.0);
}

TEST(JainTest, ConcentrationLowersIndex) {
  EXPECT_NEAR(JainIndex({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  EXPECT_GT(JainIndex({1.0, 0.5}), JainIndex({1.0, 0.1}));
}

// Two tenants on one node: tenant 0 is a whale, tenant 1 a small victim.
class FairnessFixture : public ::testing::Test {
 protected:
  FairnessFixture()
      : fleet_(MakeTinyFleet({{{1}}, {{1}}}, /*wt_count=*/2)),
        metrics_(MakeEmptyMetrics(fleet_, 10)) {
    // Whale demands 180 MB/step on QP 0; victim demands 20 MB/step on QP 1.
    SetConstantWrite(metrics_, fleet_.qps[0].id, 180e6);
    SetConstantWrite(metrics_, fleet_.qps[1].id, 20e6);
  }
  Fleet fleet_;
  MetricDataset metrics_;
};

TEST_F(FairnessFixture, NoContentionWhenCapacitySuffices) {
  FairnessConfig config;
  config.wt_capacity_bytes_per_step = 200e6;  // 2 WTs x 200 > 200 demand
  const auto result = EvaluateDispatchFairness(fleet_, metrics_, config);
  EXPECT_EQ(result.overloaded_steps, 0u);
  EXPECT_DOUBLE_EQ(result.victim_satisfaction, 1.0);
}

TEST_F(FairnessFixture, GreedyDispatchStarvesVictimProportionally) {
  FairnessConfig config;
  config.wt_capacity_bytes_per_step = 50e6;  // node capacity 100 vs demand 200
  config.discipline = DispatchDiscipline::kGreedyDispatch;
  const auto result = EvaluateDispatchFairness(fleet_, metrics_, config);
  EXPECT_EQ(result.overloaded_steps, 10u);
  // Backlog-proportional: everyone served at 50%.
  EXPECT_NEAR(result.victim_satisfaction, 0.5, 1e-9);
  EXPECT_NEAR(result.utilization, 1.0, 1e-9);
}

TEST_F(FairnessFixture, DrrProtectsVictimFully) {
  FairnessConfig config;
  config.wt_capacity_bytes_per_step = 50e6;
  config.discipline = DispatchDiscipline::kDrrDispatch;
  const auto result = EvaluateDispatchFairness(fleet_, metrics_, config);
  // Max-min: victim's 20 MB fits inside its 50 MB fair share.
  EXPECT_NEAR(result.victim_satisfaction, 1.0, 1e-9);
  EXPECT_NEAR(result.utilization, 1.0, 1e-9);
}

TEST_F(FairnessFixture, InlinePollingIsolatesButStrandsCapacity) {
  // QPs are bound round-robin: whale QP0 -> WT0, victim QP1 -> WT1. Each WT
  // serves only its own QP, so the victim is fully isolated while WT1's spare
  // 30 MB goes unused.
  FairnessConfig config;
  config.wt_capacity_bytes_per_step = 50e6;
  config.discipline = DispatchDiscipline::kInlinePolling;
  const auto result = EvaluateDispatchFairness(fleet_, metrics_, config);
  EXPECT_NEAR(result.victim_satisfaction, 1.0, 1e-9);
  // Served = 50 (whale, capped) + 20 (victim) = 70 of the servable 100.
  EXPECT_NEAR(result.utilization, 0.7, 1e-9);
}

TEST_F(FairnessFixture, SingleTenantNodesAreSkipped) {
  const Fleet solo = MakeTinyFleet({{{1, 1}}}, 2);
  MetricDataset metrics = MakeEmptyMetrics(solo, 5);
  SetConstantWrite(metrics, solo.qps[0].id, 500e6);
  FairnessConfig config;
  config.wt_capacity_bytes_per_step = 10e6;
  const auto result = EvaluateDispatchFairness(solo, metrics, config);
  EXPECT_EQ(result.overloaded_steps, 0u);
}

TEST_F(FairnessFixture, CapacityMustBePositive) {
  // A NaN capacity used to count every multi-tenant step as overloaded (and
  // greedy dispatch reported NaN utilization); zero and negative ones ran too.
  const DispatchDiscipline disciplines[] = {DispatchDiscipline::kInlinePolling,
                                            DispatchDiscipline::kGreedyDispatch,
                                            DispatchDiscipline::kDrrDispatch};
  for (const DispatchDiscipline discipline : disciplines) {
    for (const double bad : {std::nan(""), 0.0, -0.0, -1.0,
                             -std::numeric_limits<double>::infinity()}) {
      FairnessConfig config;
      config.discipline = discipline;
      config.wt_capacity_bytes_per_step = bad;
      EXPECT_THROW(EvaluateDispatchFairness(fleet_, metrics_, config), std::invalid_argument)
          << DispatchDisciplineName(discipline) << " " << bad;
    }
    FairnessConfig unbounded;
    unbounded.discipline = discipline;
    unbounded.wt_capacity_bytes_per_step = std::numeric_limits<double>::infinity();
    const FairnessResult result = EvaluateDispatchFairness(fleet_, metrics_, unbounded);
    EXPECT_EQ(result.overloaded_steps, 0u) << DispatchDisciplineName(discipline);
    EXPECT_EQ(result.utilization, 1.0) << DispatchDisciplineName(discipline);
  }
}

TEST(DispatchDisciplineTest, Names) {
  EXPECT_STREQ(DispatchDisciplineName(DispatchDiscipline::kInlinePolling), "inline-polling");
  EXPECT_STREQ(DispatchDisciplineName(DispatchDiscipline::kGreedyDispatch),
               "greedy-dispatch");
  EXPECT_STREQ(DispatchDisciplineName(DispatchDiscipline::kDrrDispatch), "drr-dispatch");
}

}  // namespace
}  // namespace ebs
