// Shape-guard regression suite: the qualitative paper findings that
// EXPERIMENTS.md records must keep holding when the model is tuned. Each test
// pins one headline "shape" on a deliberately small (fast) simulation.

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/skewness.h"
#include "src/balancer/balancer.h"
#include "src/cache/hotspot.h"
#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/core/validate.h"
#include "src/hypervisor/fairness.h"
#include "src/throttle/throttle.h"
#include "src/util/stats.h"

namespace ebs {
namespace {

class ShapeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimulationConfig config = DcPreset(1);
    config.fleet.user_count = 80;
    config.workload.window_steps = 300;
    sim_ = new EbsSimulation(config);
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }
  static EbsSimulation* sim_;
};

EbsSimulation* ShapeFixture::sim_ = nullptr;

// Observation 1 (§3.2): spatio-temporal skewness is severe.
TEST_F(ShapeFixture, Observation1SevereSkewness) {
  const LevelSkewness vm = ComputeLevelSkewness(sim_->VmSeries());
  EXPECT_GT(vm.ccr20[0], 0.8);  // top 20% of VMs carry >80% of reads
  EXPECT_GT(vm.p2a50[0], 30.0);
}

// Observation 2 (§3.2): read skew exceeds write skew.
TEST_F(ShapeFixture, Observation2ReadSkewDominates) {
  const LevelSkewness vm = ComputeLevelSkewness(sim_->VmSeries());
  EXPECT_GT(vm.p2a50[0], 5.0 * vm.p2a50[1]);
}

// §4.1: worker threads are skewed despite round-robin binding.
TEST_F(ShapeFixture, WtSkewPersists) {
  const auto samples = WindowNormalizedCoV(sim_->WtSeries(), OpType::kWrite, 0,
                                           sim_->metrics().window_steps);
  EXPECT_GT(samples, 0.0);  // fleet-level CoV exists
}

// §5.1: RAR is high when VDs throttle.
TEST_F(ShapeFixture, RarIsAbundantDuringThrottle) {
  const auto groups = MultiVdVmGroups(sim_->fleet());
  const auto analysis =
      AnalyzeThrottle(sim_->fleet(), sim_->workload().offered_vd, groups, {});
  if (analysis.rar_throughput.size() >= 10) {
    EXPECT_GT(Percentile(analysis.rar_throughput, 50.0), 0.30);
  }
}

// §5.2: throttle events are op-class pure, mostly writes.
TEST_F(ShapeFixture, ThrottleIsWriteDominated) {
  const auto groups = MultiVdVmGroups(sim_->fleet());
  const auto analysis =
      AnalyzeThrottle(sim_->fleet(), sim_->workload().offered_vd, groups, {});
  size_t write_dom = 0;
  size_t mixed = 0;
  for (const double wr : analysis.wr_ratio_throughput) {
    write_dom += wr > 1.0 / 3.0 ? 1 : 0;
    mixed += std::abs(wr) <= 1.0 / 3.0 ? 1 : 0;
  }
  if (analysis.wr_ratio_throughput.size() >= 20) {
    EXPECT_GT(write_dom, analysis.wr_ratio_throughput.size() / 2);
    EXPECT_LT(mixed, analysis.wr_ratio_throughput.size() / 4);
  }
}

// §5.3: lending yields a positive median gain at a moderate rate.
TEST_F(ShapeFixture, LendingHelpsOnMedian) {
  const auto groups = MultiVdVmGroups(sim_->fleet());
  ThrottleConfig config;
  config.lending_rate = 0.6;
  const auto gains =
      SimulateLending(sim_->fleet(), sim_->workload().offered_vd, groups, config);
  if (gains.size() >= 10) {
    EXPECT_GE(Percentile(gains, 50.0), 0.0);
  }
}

// §6.2.1: inter-BS read skew exceeds write skew.
TEST_F(ShapeFixture, InterBsReadSkewExceedsWrite) {
  const auto& bs = sim_->BsSeries();
  const double read_cov = WindowNormalizedCoV(bs, OpType::kRead, 0,
                                              sim_->metrics().window_steps);
  const double write_cov = WindowNormalizedCoV(bs, OpType::kWrite, 0,
                                               sim_->metrics().window_steps);
  EXPECT_GT(read_cov, write_cov * 0.8);
}

// §7.2: hottest blocks are overwhelmingly write-dominant.
TEST_F(ShapeFixture, HottestBlocksWriteDominant) {
  const VdTraceIndex index(sim_->fleet(), sim_->traces());
  size_t write_dom = 0;
  size_t counted = 0;
  for (const VdId vd : index.ActiveVds(100)) {
    const auto stats = AnalyzeHottestBlock(
        index.ForVd(vd), sim_->fleet().vds[vd.value()].capacity_bytes, 64ULL * kMiB,
        sim_->traces().window_seconds, 60.0);
    if (stats) {
      ++counted;
      write_dom += stats->wr_ratio > 1.0 / 3.0 ? 1 : 0;
    }
  }
  ASSERT_GE(counted, 20u);
  EXPECT_GT(static_cast<double>(write_dom) / static_cast<double>(counted), 0.7);
}

// §7.3.1: FrozenHot improves with cache size; its lower bound rises sharply.
TEST_F(ShapeFixture, FrozenHotGainsWithSpace) {
  const VdTraceIndex index(sim_->fleet(), sim_->traces());
  const auto vds = index.ActiveVds(200);
  ASSERT_GE(vds.size(), 10u);
  std::vector<double> small_ratios;
  std::vector<double> large_ratios;
  for (size_t i = 0; i < std::min<size_t>(40, vds.size()); ++i) {
    const uint64_t capacity = sim_->fleet().vds[vds[i].value()].capacity_bytes;
    small_ratios.push_back(
        ReplayVdCache(index.ForVd(vds[i]), capacity, 64ULL * kMiB, CachePolicy::kFrozenHot)
            .hit_ratio);
    large_ratios.push_back(ReplayVdCache(index.ForVd(vds[i]), capacity, 2048ULL * kMiB,
                                         CachePolicy::kFrozenHot)
                               .hit_ratio);
  }
  EXPECT_GT(Percentile(large_ratios, 50.0), Percentile(small_ratios, 50.0));
  EXPECT_GT(Percentile(large_ratios, 10.0), Percentile(small_ratios, 10.0));
}

// §4.4 extension: DRR dominates greedy on victim satisfaction at equal
// utilization.
TEST_F(ShapeFixture, DrrBeatsGreedyForVictims) {
  FairnessConfig config;
  config.wt_capacity_bytes_per_step = 25e6;
  config.discipline = DispatchDiscipline::kGreedyDispatch;
  const auto greedy = EvaluateDispatchFairness(sim_->fleet(), sim_->metrics(), config);
  config.discipline = DispatchDiscipline::kDrrDispatch;
  const auto drr = EvaluateDispatchFairness(sim_->fleet(), sim_->metrics(), config);
  if (greedy.overloaded_steps > 50) {
    EXPECT_GT(drr.victim_satisfaction, greedy.victim_satisfaction);
    EXPECT_NEAR(drr.utilization, greedy.utilization, 1e-6);
  }
}

// §5.3 extension: static cap splits cause split-induced throttling.
TEST_F(ShapeFixture, StaticSplitBackfires) {
  const auto joint =
      EvaluateCapSplit(sim_->fleet(), sim_->workload().offered_vd, CapSplitMode::kJoint);
  const auto split = EvaluateCapSplit(sim_->fleet(), sim_->workload().offered_vd,
                                      CapSplitMode::kStaticSplit, 0.5);
  EXPECT_GT(split.throttled_vd_seconds, joint.throttled_vd_seconds);
  EXPECT_GT(split.split_induced_seconds, 0u);
}

TEST(ValidationTest, PresetsAreValid) {
  EXPECT_EQ(ValidateSimulationConfig(DcPreset(1)), "");
  EXPECT_EQ(ValidateSimulationConfig(DcPreset(2)), "");
  EXPECT_EQ(ValidateSimulationConfig(DcPreset(3)), "");
  EXPECT_EQ(ValidateSimulationConfig(StorageStudyPreset()), "");
}

TEST(ValidationTest, RejectsBrokenConfigs) {
  // Every facade constructor validates before it builds anything: a zero
  // storage-node or WT count used to reach BuildFleet and die with SIGFPE, and
  // the batch facade used to validate only with control on.
  const auto expect_rejected = [](const SimulationConfig& broken) {
    EXPECT_NE(ValidateSimulationConfig(broken), "");
    EXPECT_THROW(EbsSimulation{broken}, std::invalid_argument);
    EXPECT_THROW(StreamingSimulation{broken}, std::invalid_argument);
    // Store replay validates before it opens the store.
    EXPECT_THROW(StreamingSimulation("missing.ebst", broken), std::invalid_argument);
  };

  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 0;
  expect_rejected(config);

  config = DcPreset(1);
  config.fleet.storage_nodes_per_cluster = 0;
  expect_rejected(config);

  config = DcPreset(1);
  config.fleet.wts_per_node = 0;
  expect_rejected(config);

  config = DcPreset(1);
  config.workload.window_steps = 0;
  expect_rejected(config);

  config = DcPreset(1);
  config.workload.sampling_rate = 0.0;
  expect_rejected(config);
  config.queueing.enabled = true;
  expect_rejected(config);

  config = DcPreset(1);
  config.fleet.app_vm_weights = {1.0};  // wrong arity
  expect_rejected(config);

  config = DcPreset(1);
  config.fleet.app_vm_weights.assign(kAppTypeCount, 0.0);
  expect_rejected(config);

  config = DcPreset(1);
  config.workload.hot_prob_scale = -0.5;
  expect_rejected(config);

  // Non-finite values. NaN fails every ordered comparison, so it slipped past
  // the `x <= 0.0` style checks: a NaN sampling or rate scale (and an infinite
  // rate scale) hung generation, a NaN step length threw std::length_error
  // from an allocation, and a NaN cap scale silently turned throttling off.
  using Field = std::function<double&(SimulationConfig&)>;
  const std::vector<std::pair<std::string, Field>> fields = {
      {"step_seconds", [](SimulationConfig& c) -> double& { return c.workload.step_seconds; }},
      {"sampling_rate", [](SimulationConfig& c) -> double& { return c.workload.sampling_rate; }},
      {"rate_scale", [](SimulationConfig& c) -> double& { return c.workload.rate_scale; }},
      {"cap_scale", [](SimulationConfig& c) -> double& { return c.workload.cap_scale; }},
      {"max_vd_mean_write_rate_mbps",
       [](SimulationConfig& c) -> double& { return c.workload.max_vd_mean_write_rate_mbps; }},
      {"hot_prob_scale", [](SimulationConfig& c) -> double& { return c.workload.hot_prob_scale; }},
      {"vms_per_user_sigma",
       [](SimulationConfig& c) -> double& { return c.fleet.vms_per_user_sigma; }},
      {"vds_per_vm_sigma", [](SimulationConfig& c) -> double& { return c.fleet.vds_per_vm_sigma; }},
      // A NaN latency base time left the queue model at 36 of a run's 222
      // events (8 users, 30 steps, queueing on).
      {"latency.read_base_us[0]",
       [](SimulationConfig& c) -> double& { return c.workload.latency.read_base_us[0]; }},
      {"latency.write_base_us[4]",
       [](SimulationConfig& c) -> double& { return c.workload.latency.write_base_us[4]; }},
      {"latency.jitter_sigma",
       [](SimulationConfig& c) -> double& { return c.workload.latency.jitter_sigma; }},
      {"latency.straggler_probability",
       [](SimulationConfig& c) -> double& { return c.workload.latency.straggler_probability; }},
      {"latency.straggler_multiplier",
       [](SimulationConfig& c) -> double& { return c.workload.latency.straggler_multiplier; }},
      {"latency.flash_read_us",
       [](SimulationConfig& c) -> double& { return c.workload.latency.flash_read_us; }},
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& [name, field] : fields) {
    for (const double value : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
      SCOPED_TRACE(name + " = " + std::to_string(value));
      config = DcPreset(1);
      field(config) = value;
      expect_rejected(config);
    }
  }

  // Finite but out of range.
  config = DcPreset(1);
  config.workload.latency.read_base_us[0] = -1.0;
  expect_rejected(config);
  config = DcPreset(1);
  config.workload.latency.flash_read_us = -1.0;
  expect_rejected(config);
  for (const double probability : {-0.1, 1.5}) {
    config = DcPreset(1);
    config.workload.latency.straggler_probability = probability;
    expect_rejected(config);
  }
}

}  // namespace
}  // namespace ebs
