// Tests for the extension subsystems: cap splitting (§5.3), hybrid cache
// deployment (§7.3.2) and CSV export.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/cache/hybrid.h"
#include "src/throttle/throttle.h"
#include "src/trace/csv_export.h"
#include "src/util/stats.h"
#include "src/workload/generator.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

// --- Cap splitting -----------------------------------------------------------

class CapSplitFixture : public ::testing::Test {
 protected:
  CapSplitFixture()
      : fleet_(MakeTinyFleet({{{1}}}, 4, 4, /*cap_mbps=*/100.0, /*cap_iops=*/1e9)),
        offered_(fleet_.vds.size(), RwSeries(10, 1.0)) {}
  Fleet fleet_;
  std::vector<RwSeries> offered_;
};

TEST_F(CapSplitFixture, JointCapAllowsSkewedMix) {
  // 90 MB writes + 5 MB reads: fine under the 100 MB joint cap.
  offered_[0].write_bytes[3] = 90e6;
  offered_[0].read_bytes[3] = 5e6;
  const auto joint = EvaluateCapSplit(fleet_, offered_, CapSplitMode::kJoint);
  EXPECT_EQ(joint.throttled_vd_seconds, 0u);
  // A 50/50 static split throttles the write side (90 > 50) even though the
  // total fits: split-induced.
  const auto split = EvaluateCapSplit(fleet_, offered_, CapSplitMode::kStaticSplit, 0.5);
  EXPECT_EQ(split.throttled_vd_seconds, 1u);
  EXPECT_EQ(split.split_induced_seconds, 1u);
}

TEST_F(CapSplitFixture, ProfiledSplitMatchesTheMix) {
  offered_[0].write_bytes[3] = 90e6;
  offered_[0].read_bytes[3] = 5e6;
  const auto profiled =
      EvaluateCapSplit(fleet_, offered_, CapSplitMode::kProfiledSplit);
  // Oracle profile gives ~95% of the cap to writes: no throttling.
  EXPECT_EQ(profiled.throttled_vd_seconds, 0u);
}

TEST_F(CapSplitFixture, OverJointCapThrottlesEverywhere) {
  offered_[0].write_bytes[5] = 150e6;
  for (const CapSplitMode mode :
       {CapSplitMode::kJoint, CapSplitMode::kStaticSplit, CapSplitMode::kProfiledSplit}) {
    const auto result = EvaluateCapSplit(fleet_, offered_, mode);
    EXPECT_GE(result.throttled_vd_seconds, 1u) << CapSplitModeName(mode);
  }
}

TEST(CapSplitModeTest, Names) {
  EXPECT_STREQ(CapSplitModeName(CapSplitMode::kJoint), "joint-cap");
  EXPECT_STREQ(CapSplitModeName(CapSplitMode::kStaticSplit), "static-split");
  EXPECT_STREQ(CapSplitModeName(CapSplitMode::kProfiledSplit), "profiled-split");
}

// --- Hybrid cache ------------------------------------------------------------

TraceDataset CacheableTraces(const Fleet& fleet, VdId vd) {
  TraceDataset traces;
  traces.window_seconds = 10.0;
  for (int i = 0; i < 100; ++i) {
    TraceRecord r;
    r.timestamp = i * 0.1;
    r.offset = i % 2 == 0 ? 4096ULL * (i % 8) : 40ULL * kGiB + 1ULL * kGiB * (i % 16);
    r.op = OpType::kWrite;
    r.size_bytes = 4096;
    r.vd = vd;
    r.vm = fleet.vds[vd.value()].vm;
    for (int c = 0; c < kStackComponentCount; ++c) {
      r.latency.component_us[c] = 30.0;
    }
    traces.records.push_back(r);
  }
  return traces;
}

TEST(HybridCacheTest, CnOnlyPlacesEverythingAtCn) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = CacheableTraces(fleet, VdId(0));
  const VdTraceIndex index(fleet, traces);
  HybridCacheConfig config;
  config.block_bytes = 64ULL * kMiB;
  const auto result = EvaluateHybridDeployment(fleet, traces, index,
                                               CacheDeployment::kCnOnly, config);
  EXPECT_EQ(result.cached_at_cn, 1u);
  EXPECT_EQ(result.cached_at_bs, 0u);
  EXPECT_LT(result.write_p50_gain, 1.0);
}

TEST(HybridCacheTest, HybridSpillsToBsWhenCnBudgetExhausted) {
  const Fleet fleet = MakeTinyFleet({{{1}}, {{1}}, {{1}}});
  TraceDataset traces = CacheableTraces(fleet, VdId(0));
  for (const TraceRecord& r : CacheableTraces(fleet, VdId(1)).records) {
    traces.records.push_back(r);
  }
  for (const TraceRecord& r : CacheableTraces(fleet, VdId(2)).records) {
    traces.records.push_back(r);
  }
  const VdTraceIndex index(fleet, traces);
  HybridCacheConfig config;
  config.block_bytes = 64ULL * kMiB;
  config.cn_slots = 1;  // all three VMs share the single tiny-fleet node
  const auto result =
      EvaluateHybridDeployment(fleet, traces, index, CacheDeployment::kHybrid, config);
  EXPECT_EQ(result.cached_at_cn, 1u);
  EXPECT_EQ(result.cached_at_bs, 2u);
  EXPECT_EQ(result.max_cn_slots_used, 1u);
}

TEST(HybridCacheTest, NonCacheableVdsIgnored) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  TraceDataset traces;
  traces.window_seconds = 10.0;
  for (int i = 0; i < 100; ++i) {
    TraceRecord r;
    r.timestamp = i * 0.1;
    r.offset = static_cast<uint64_t>(i) * 600ULL * kMiB % (64ULL * kGiB);
    r.op = OpType::kWrite;
    r.size_bytes = 4096;
    r.vd = VdId(0);
    r.vm = VmId(0);
    traces.records.push_back(r);
  }
  const VdTraceIndex index(fleet, traces);
  HybridCacheConfig config;
  config.block_bytes = 64ULL * kMiB;
  const auto result =
      EvaluateHybridDeployment(fleet, traces, index, CacheDeployment::kHybrid, config);
  EXPECT_EQ(result.cached_at_cn + result.cached_at_bs + result.uncached, 0u);
  EXPECT_DOUBLE_EQ(result.write_p50_gain, 1.0);
}

TEST(HybridCacheTest, RejectsConfigsItCannotRun) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = CacheableTraces(fleet, VdId(0));
  const VdTraceIndex index(fleet, traces);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  HybridCacheConfig valid;
  valid.block_bytes = 64ULL * kMiB;

  std::vector<HybridCacheConfig> bad;
  for (const double threshold : {nan, -0.1, 1.5, inf, -inf}) {
    bad.push_back(valid);
    bad.back().cacheable_threshold = threshold;
  }
  for (const double flash : {nan, -1.0, inf}) {
    bad.push_back(valid);
    bad.back().flash_read_us = flash;
    bad.push_back(valid);
    bad.back().flash_write_us = flash;
  }
  bad.push_back(valid);
  bad.back().block_bytes = 0;
  for (size_t i = 0; i < bad.size(); ++i) {
    for (const CacheDeployment deployment :
         {CacheDeployment::kCnOnly, CacheDeployment::kBsOnly, CacheDeployment::kHybrid}) {
      EXPECT_THROW(EvaluateHybridDeployment(fleet, traces, index, deployment, bad[i]),
                   std::invalid_argument)
          << i << " " << CacheDeploymentName(deployment);
    }
  }

  // The edges run: threshold 0 caches every VD with IOs, threshold 1 only a
  // VD whose every IO lands in its hottest block, and zero flash latencies
  // are allowed.
  HybridCacheConfig edge = valid;
  edge.cacheable_threshold = 0.0;
  edge.flash_read_us = 0.0;
  edge.flash_write_us = 0.0;
  EXPECT_EQ(
      EvaluateHybridDeployment(fleet, traces, index, CacheDeployment::kCnOnly, edge).cached_at_cn,
      1u);
  edge.cacheable_threshold = 1.0;
  EXPECT_EQ(
      EvaluateHybridDeployment(fleet, traces, index, CacheDeployment::kCnOnly, edge).cached_at_cn,
      0u);
}

// --- CSV export ---------------------------------------------------------------

class CsvFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    FleetConfig fleet_config;
    fleet_config.seed = 3;
    fleet_config.user_count = 6;
    fleet_ = BuildFleet(fleet_config);
    WorkloadConfig config;
    config.seed = 4;
    config.window_steps = 30;
    result_ = WorkloadGenerator(fleet_, config).Generate();
  }
  std::string TempPath(const char* name) {
    return std::string(::testing::TempDir()) + "/" + name;
  }
  size_t CountLines(const std::string& path) {
    std::ifstream in(path);
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
      ++lines;
    }
    return lines;
  }
  Fleet fleet_;
  WorkloadResult result_;
};

TEST_F(CsvFixture, TracesCsvHasHeaderAndAllRecords) {
  const std::string path = TempPath("traces.csv");
  ASSERT_TRUE(WriteTracesCsv(result_.traces, path));
  EXPECT_EQ(CountLines(path), result_.traces.records.size() + 1);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.substr(0, 12), "timestamp,op");
  std::remove(path.c_str());
}

TEST_F(CsvFixture, MetricsCsvsAreSparseButNonEmpty) {
  const std::string compute = TempPath("compute.csv");
  const std::string storage = TempPath("storage.csv");
  ASSERT_TRUE(WriteComputeMetricsCsv(fleet_, result_.metrics, compute));
  ASSERT_TRUE(WriteStorageMetricsCsv(fleet_, result_.metrics, storage));
  EXPECT_GT(CountLines(compute), 1u);
  EXPECT_GT(CountLines(storage), 1u);
  std::remove(compute.c_str());
  std::remove(storage.c_str());
}

TEST_F(CsvFixture, UnwritablePathFails) {
  EXPECT_FALSE(WriteTracesCsv(result_.traces, "/nonexistent-dir/traces.csv"));
}

// --- Generator ablation knobs ---------------------------------------------------

TEST(AblationKnobTest, SteadyReadsCollapseReadP2a) {
  FleetConfig fleet_config;
  fleet_config.seed = 9;
  fleet_config.user_count = 15;
  const Fleet fleet = BuildFleet(fleet_config);
  WorkloadConfig episodic;
  episodic.seed = 10;
  episodic.window_steps = 120;
  WorkloadConfig steady = episodic;
  steady.episodic_reads = false;

  auto median_read_p2a = [&](const WorkloadConfig& config) {
    const WorkloadResult result = WorkloadGenerator(fleet, config).Generate();
    std::vector<double> p2a;
    for (const RwSeries& vd : result.offered_vd) {
      const double value = vd.read_bytes.PeakToAverage();
      if (value > 0.0) {
        p2a.push_back(value);
      }
    }
    return Percentile(p2a, 50.0);
  };
  EXPECT_GT(median_read_p2a(episodic), median_read_p2a(steady) * 3.0);
}

TEST(AblationKnobTest, UniformQpSplitBalancesQps) {
  FleetConfig fleet_config;
  fleet_config.seed = 11;
  fleet_config.user_count = 15;
  const Fleet fleet = BuildFleet(fleet_config);
  WorkloadConfig uniform;
  uniform.seed = 12;
  uniform.window_steps = 60;
  uniform.qp_concentration = false;
  const WorkloadResult result = WorkloadGenerator(fleet, uniform).Generate();
  // Every multi-QP VD's write traffic is spread evenly.
  for (const Vd& vd : fleet.vds) {
    if (vd.qps.size() < 2) {
      continue;
    }
    std::vector<double> totals;
    for (const QpId qp : vd.qps) {
      totals.push_back(result.metrics.qp_series[qp.value()].write_bytes.SumAll());
    }
    if (Sum(totals) > 0.0) {
      EXPECT_LT(NormalizedCoV(totals), 0.05);
    }
  }
}

}  // namespace
}  // namespace ebs
