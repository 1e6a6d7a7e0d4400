// Tests for the synthetic workload generator: temporal processes, spatial
// models and the fleet synthesis invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/fault/schedule.h"
#include "src/scenario/model.h"
#include "src/scenario/parser.h"
#include "src/topology/fleet.h"
#include "src/util/rng.h"
#include "src/trace/aggregate.h"
#include "src/workload/app_profile.h"
#include "src/workload/generator.h"
#include "src/workload/spatial.h"
#include "src/workload/temporal.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

constexpr double kMB = 1e6;

TEST(AppProfileTest, AllProfilesSane) {
  for (int i = 0; i < kAppTypeCount; ++i) {
    const AppProfile& profile = GetAppProfile(static_cast<AppType>(i));
    EXPECT_EQ(profile.type, static_cast<AppType>(i));
    EXPECT_GT(profile.read_active_prob, 0.0);
    EXPECT_LE(profile.read_active_prob, 1.0);
    EXPECT_GT(profile.write_active_prob, 0.0);
    EXPECT_GT(profile.read_io_kib_median, 0.0);
    EXPECT_GT(profile.write_io_kib_median, 0.0);
    EXPECT_GT(profile.zipf_alpha, 0.0);
    EXPECT_GE(profile.seq_write_prob, 0.0);
    EXPECT_LE(profile.seq_write_prob, 1.0);
  }
}

TEST(AppProfileTest, BigDataIsBiggestWriter) {
  const AppProfile& big = GetAppProfile(AppType::kBigData);
  const AppProfile& web = GetAppProfile(AppType::kWebApp);
  const double big_mean = std::exp(big.write_rate_mu + 0.5 * big.write_rate_sigma *
                                                           big.write_rate_sigma);
  const double web_mean = std::exp(web.write_rate_mu + 0.5 * web.write_rate_sigma *
                                                           web.write_rate_sigma);
  EXPECT_GT(big_mean, web_mean * 5.0);
  // ... but with the least skew.
  EXPECT_LT(big.write_rate_sigma, web.write_rate_sigma);
}

TEST(TemporalTest, ZeroRateYieldsZeroSeries) {
  const RateProcessGenerator generator({100, 1.0});
  Rng rng(1);
  const TimeSeries series =
      generator.Generate(OpType::kWrite, 0.0, 0.0, GetAppProfile(AppType::kWebApp), rng);
  EXPECT_DOUBLE_EQ(series.SumAll(), 0.0);
}

TEST(TemporalTest, WritePreservesMean) {
  const RateProcessGenerator generator({600, 1.0});
  Rng rng(2);
  const TimeSeries series = generator.Generate(OpType::kWrite, 5.0 * kMB, 0.0,
                                               GetAppProfile(AppType::kDatabase), rng);
  EXPECT_NEAR(series.MeanAll(), 5.0 * kMB, 1.0);
}

TEST(TemporalTest, ReadPreservesMean) {
  const RateProcessGenerator generator({600, 1.0});
  Rng rng(3);
  const TimeSeries series = generator.Generate(OpType::kRead, 2.0 * kMB, 100.0 * kMB,
                                               GetAppProfile(AppType::kBigData), rng);
  EXPECT_NEAR(series.MeanAll(), 2.0 * kMB, 1.0);
}

TEST(TemporalTest, ReadIsEpisodic) {
  const RateProcessGenerator generator({600, 1.0});
  Rng rng(4);
  const TimeSeries series = generator.Generate(OpType::kRead, 1.0 * kMB, 200.0 * kMB,
                                               GetAppProfile(AppType::kDatabase), rng);
  size_t active = 0;
  for (size_t t = 0; t < series.size(); ++t) {
    if (series[t] > 0.0) {
      ++active;
    }
  }
  // Most of the window is idle: the volume squeezes into episodes.
  EXPECT_LT(active, series.size() / 10);
  EXPECT_GT(active, 0u);
}

TEST(TemporalTest, ReadP2aExceedsWriteP2a) {
  const RateProcessGenerator generator({600, 1.0});
  Rng rng(5);
  double read_p2a = 0.0;
  double write_p2a = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    read_p2a += generator
                    .Generate(OpType::kRead, 2.0 * kMB, 300.0 * kMB,
                              GetAppProfile(AppType::kMiddleware), rng)
                    .PeakToAverage();
    write_p2a += generator
                     .Generate(OpType::kWrite, 2.0 * kMB, 0.0,
                               GetAppProfile(AppType::kMiddleware), rng)
                     .PeakToAverage();
  }
  EXPECT_GT(read_p2a, write_p2a * 3.0);
}

TEST(TemporalTest, SmallerReadersAreSpikier) {
  const RateProcessGenerator generator({600, 1.0});
  Rng rng(6);
  double small_p2a = 0.0;
  double large_p2a = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    small_p2a += generator
                     .Generate(OpType::kRead, 0.5 * kMB, 300.0 * kMB,
                               GetAppProfile(AppType::kBigData), rng)
                     .PeakToAverage();
    large_p2a += generator
                     .Generate(OpType::kRead, 100.0 * kMB, 300.0 * kMB,
                               GetAppProfile(AppType::kBigData), rng)
                     .PeakToAverage();
  }
  EXPECT_GT(small_p2a, large_p2a * 2.0);
}

TEST(TemporalTest, SeriesNonNegative) {
  const RateProcessGenerator generator({300, 1.0});
  Rng rng(7);
  for (const OpType op : {OpType::kRead, OpType::kWrite}) {
    const TimeSeries series =
        generator.Generate(op, 3.0 * kMB, 150.0 * kMB, GetAppProfile(AppType::kDocker), rng);
    for (size_t t = 0; t < series.size(); ++t) {
      EXPECT_GE(series[t], 0.0);
    }
  }
}

// --- Spatial model -----------------------------------------------------------

class SpatialFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    FleetConfig config;
    config.seed = 31;
    config.user_count = 10;
    fleet_ = BuildFleet(config);
  }
  const Vd& BigVd() {
    // Find a VD with several segments.
    for (const Vd& vd : fleet_.vds) {
      if (vd.segments.size() >= 8) {
        return vd;
      }
    }
    return fleet_.vds[0];
  }
  Fleet fleet_;
};

TEST_F(SpatialFixture, ActiveSegmentWeightsSumToOne) {
  Rng rng(1);
  VdSpatialModel model(BigVd(), GetAppProfile(AppType::kDatabase), 1e9, 3e9, rng);
  for (const OpType op : {OpType::kRead, OpType::kWrite}) {
    double total = 0.0;
    for (const auto& [segment, weight] : model.ActiveSegments(op)) {
      EXPECT_GT(weight, 0.0);
      EXPECT_LT(segment, BigVd().segments.size());
      total += weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(SpatialFixture, OffsetsWithinCapacityAndAligned) {
  Rng rng(2);
  const Vd& vd = BigVd();
  VdSpatialModel model(vd, GetAppProfile(AppType::kDocker), 1e9, 3e9, rng);
  for (int i = 0; i < 20000; ++i) {
    const OpType op = i % 3 == 0 ? OpType::kRead : OpType::kWrite;
    const uint64_t offset = model.SampleOffset(op, 16 * 1024, rng);
    EXPECT_LT(offset, vd.capacity_bytes);
    EXPECT_EQ(offset % kPageBytes, 0u);
  }
}

TEST_F(SpatialFixture, HotRegionFrequencyMatchesProbability) {
  Rng rng(3);
  const Vd& vd = BigVd();
  VdSpatialModel model(vd, GetAppProfile(AppType::kDatabase), 1e9, 3e9, rng);
  const double hot_p = model.hot_prob(OpType::kWrite);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const uint64_t offset = model.SampleOffset(OpType::kWrite, 16 * 1024, rng);
    if (offset >= model.hot_offset() && offset < model.hot_offset() + model.hot_bytes()) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, hot_p, 0.02);
}

TEST_F(SpatialFixture, WhaleHotProbabilityIsDamped) {
  Rng rng_a(4);
  Rng rng_b(4);
  const Vd& vd = BigVd();
  VdSpatialModel typical(vd, GetAppProfile(AppType::kDatabase), 1e9, 1e9, rng_a);
  VdSpatialModel whale(vd, GetAppProfile(AppType::kDatabase), 1e9, 400e9, rng_b);
  EXPECT_LT(whale.hot_prob(OpType::kWrite), typical.hot_prob(OpType::kWrite));
}

TEST_F(SpatialFixture, WhaleSequentialSpanCoversManySegments) {
  Rng rng(5);
  const Vd& vd = BigVd();
  VdSpatialModel whale(vd, GetAppProfile(AppType::kBigData), 0.0, 500e9, rng);
  EXPECT_GT(whale.seq_span_segments(), 2u);
}

TEST_F(SpatialFixture, SegmentWeightsMatchSampledOffsets) {
  Rng rng(6);
  const Vd& vd = BigVd();
  VdSpatialModel model(vd, GetAppProfile(AppType::kMiddleware), 2e9, 6e9, rng);
  std::vector<double> counts(vd.segments.size(), 0.0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[model.SampleOffset(OpType::kWrite, 64 * 1024, rng) / kSegmentBytes] += 1.0;
  }
  for (const auto& [segment, weight] : model.ActiveSegments(OpType::kWrite)) {
    EXPECT_NEAR(counts[segment] / n, weight, 0.02) << "segment " << segment;
  }
}

// --- Generator ---------------------------------------------------------------

class GeneratorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FleetConfig fleet_config;
    fleet_config.seed = 51;
    fleet_config.user_count = 30;
    fleet_ = new Fleet(BuildFleet(fleet_config));
    WorkloadConfig config;
    config.seed = 52;
    config.window_steps = 150;
    config_ = new WorkloadConfig(config);
    result_ = new WorkloadResult(WorkloadGenerator(*fleet_, config).Generate());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete config_;
    delete fleet_;
    result_ = nullptr;
    config_ = nullptr;
    fleet_ = nullptr;
  }
  static Fleet* fleet_;
  static WorkloadConfig* config_;
  static WorkloadResult* result_;
};

Fleet* GeneratorFixture::fleet_ = nullptr;
WorkloadConfig* GeneratorFixture::config_ = nullptr;
WorkloadResult* GeneratorFixture::result_ = nullptr;

TEST_F(GeneratorFixture, Deterministic) {
  const WorkloadResult again = WorkloadGenerator(*fleet_, *config_).Generate();
  EXPECT_EQ(again.traces.records.size(), result_->traces.records.size());
  EXPECT_DOUBLE_EQ(again.TotalDeliveredBytes(OpType::kWrite),
                   result_->TotalDeliveredBytes(OpType::kWrite));
}

TEST_F(GeneratorFixture, DeliveredNeverExceedsOffered) {
  const auto vd_series = RollupToVd(*fleet_, result_->metrics);
  for (const Vd& vd : fleet_->vds) {
    const RwSeries& offered = result_->offered_vd[vd.id.value()];
    const RwSeries& delivered = vd_series[vd.id.value()];
    for (size_t t = 0; t < offered.read_bytes.size(); ++t) {
      EXPECT_LE(delivered.read_bytes[t], offered.read_bytes[t] * (1.0 + 1e-9));
      EXPECT_LE(delivered.write_bytes[t], offered.write_bytes[t] * (1.0 + 1e-9));
    }
  }
}

TEST_F(GeneratorFixture, ThrottleEnforcesJointCaps) {
  const auto vd_series = RollupToVd(*fleet_, result_->metrics);
  for (const Vd& vd : fleet_->vds) {
    const RwSeries& delivered = vd_series[vd.id.value()];
    const double cap_bytes = vd.throughput_cap_mbps * 1e6;
    const double cap_iops = vd.iops_cap;
    for (size_t t = 0; t < delivered.read_bytes.size(); ++t) {
      EXPECT_LE(delivered.read_bytes[t] + delivered.write_bytes[t],
                cap_bytes * (1.0 + 1e-6));
      EXPECT_LE(delivered.read_ops[t] + delivered.write_ops[t], cap_iops * (1.0 + 1e-6));
    }
  }
}

TEST_F(GeneratorFixture, TraceSizesAreSaneMultiplesOfPages) {
  for (const TraceRecord& r : result_->traces.records) {
    EXPECT_GE(r.size_bytes, kPageBytes);
    EXPECT_LE(r.size_bytes, 4u * 1024 * 1024);
    EXPECT_EQ(r.size_bytes % kPageBytes, 0u);
  }
}

TEST_F(GeneratorFixture, TraceOffsetsWithinCapacity) {
  for (const TraceRecord& r : result_->traces.records) {
    EXPECT_LT(r.offset, fleet_->vds[r.vd.value()].capacity_bytes);
    EXPECT_EQ(r.offset % kPageBytes, 0u);
  }
}

TEST_F(GeneratorFixture, TimestampsWithinWindow) {
  const double window = result_->traces.window_seconds;
  for (const TraceRecord& r : result_->traces.records) {
    EXPECT_GE(r.timestamp, 0.0);
    EXPECT_LT(r.timestamp, window);
  }
}

TEST_F(GeneratorFixture, WriteDominatesFleetBytes) {
  EXPECT_GT(result_->TotalDeliveredBytes(OpType::kWrite),
            result_->TotalDeliveredBytes(OpType::kRead));
}

TEST_F(GeneratorFixture, GroundTruthMatchesActivity) {
  const auto vd_series = RollupToVd(*fleet_, result_->metrics);
  for (const Vd& vd : fleet_->vds) {
    const VdGroundTruth& truth = result_->vd_truth[vd.id.value()];
    const double delivered = vd_series[vd.id.value()].TotalBytes();
    if (!truth.read_active && !truth.write_active) {
      EXPECT_DOUBLE_EQ(delivered, 0.0);
    }
    if (truth.write_active) {
      EXPECT_GT(truth.mean_write_bps, 0.0);
    }
  }
}

TEST_F(GeneratorFixture, RateScaleScalesVolume) {
  WorkloadConfig scaled = *config_;
  scaled.rate_scale = 0.5;
  const WorkloadResult half = WorkloadGenerator(*fleet_, scaled).Generate();
  const double full_bytes = result_->TotalDeliveredBytes(OpType::kWrite);
  const double half_bytes = half.TotalDeliveredBytes(OpType::kWrite);
  EXPECT_LT(half_bytes, full_bytes * 0.7);
  EXPECT_GT(half_bytes, full_bytes * 0.3);
}

TEST_F(GeneratorFixture, WriteRateCapBoundsVdMeans) {
  WorkloadConfig capped = *config_;
  capped.max_vd_mean_write_rate_mbps = 2.0;
  const WorkloadResult result = WorkloadGenerator(*fleet_, capped).Generate();
  for (const Vd& vd : fleet_->vds) {
    EXPECT_LE(result.vd_truth[vd.id.value()].mean_write_bps, 2.0 * 1e6 + 1.0);
  }
}

TEST_F(GeneratorFixture, DisablingThrottleKeepsOfferedLoad) {
  WorkloadConfig unthrottled = *config_;
  unthrottled.apply_throttle = false;
  const WorkloadResult result = WorkloadGenerator(*fleet_, unthrottled).Generate();
  EXPECT_GE(result.TotalDeliveredBytes(OpType::kWrite),
            result_->TotalDeliveredBytes(OpType::kWrite));
}

// --- Generator goldens ---------------------------------------------------------

// FNV-1a over everything a generated run produces: every trace record field by
// field at exact bits, in dataset order; the per-QP and the per-VD offered series;
// the storage domain's source series and entry table; the per-VD ground truth;
// and the fault tallies. Equal fingerprints mean bit-identical results.
uint64_t WorkloadFingerprint(const WorkloadResult& result) {
  uint64_t h = kFnvOffsetBasis;
  const auto mix = [&h](const auto& value) { FnvMix(&h, &value, sizeof(value)); };
  const auto mix_series = [&](const std::vector<RwSeries>& all) {
    mix(all.size());
    for (const RwSeries& series : all) {
      for (const TimeSeries* channel :
           {&series.read_bytes, &series.write_bytes, &series.read_ops, &series.write_ops}) {
        mix(channel->size());
        FnvMix(&h, channel->values().data(), channel->size() * sizeof(double));
      }
    }
  };
  mix(result.traces.records.size());
  for (const TraceRecord& r : result.traces.records) {
    mix(r.timestamp);
    mix(r.op);
    mix(r.size_bytes);
    mix(r.offset);
    for (const uint32_t id : {r.user.value(), r.vm.value(), r.vd.value(), r.qp.value(),
                              r.wt.value(), r.cn.value(), r.segment.value(), r.bs.value(),
                              r.sn.value()}) {
      mix(id);
    }
    mix(r.latency.component_us);
    mix(r.fault_retries);
    mix(r.fault_timed_out);
    mix(r.fault_failed_over);
  }
  mix_series(result.metrics.qp_series);
  mix_series(result.offered_vd);
  mix_series(result.metrics.segment_series.sources());
  mix(result.metrics.segment_series.entries().size());
  for (const SegmentEntry& entry : result.metrics.segment_series.entries()) {
    mix(entry.id);
    mix(entry.source);
    mix(entry.read_weight);
    mix(entry.write_weight);
  }
  for (const VdGroundTruth& truth : result.vd_truth) {
    mix(truth.read_active);
    mix(truth.write_active);
    mix(truth.mean_read_bps);
    mix(truth.mean_write_bps);
    mix(truth.hot_offset);
    mix(truth.hot_bytes);
    mix(truth.hot_prob_read);
    mix(truth.hot_prob_write);
  }
  const FaultStats& f = result.faults;
  for (const uint64_t count : {f.issued, f.completed, f.timed_out, f.retries, f.failovers,
                               f.slowed, f.hiccuped, f.degraded_steps}) {
    mix(count);
  }
  return h;
}

// `config`'s run must reproduce `golden` from the batch facade and from the
// streaming facade at 1, 2 and 4 workers. The goldens were recorded from the
// serial stream-major generator that preceded block stepping.
void ExpectWorkloadGolden(const SimulationConfig& config, uint64_t golden) {
  const EbsSimulation batch(config);
  const uint64_t batch_print = WorkloadFingerprint(batch.workload());
  EXPECT_EQ(batch_print, golden) << "batch" << std::hex << " actual=0x" << batch_print;
  for (const size_t workers : {1u, 2u, 4u}) {
    StreamingSimulation stream(config, {.worker_threads = workers});
    stream.Run();
    const uint64_t print = WorkloadFingerprint(stream.workload());
    EXPECT_EQ(print, golden) << workers << " workers" << std::hex << " actual=0x" << print;
  }
}

TEST(GeneratorGoldenTest, DcPresetHealthy) {
  ExpectWorkloadGolden(DcPreset(1), 0x7ed39ee564ff0379ULL);
}

TEST(GeneratorGoldenTest, CrashHeavyBattery) {
  // The control suite's crash-heavy battery (tests/control_test.cc).
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 24;
  config.workload.window_steps = 60;
  config.workload.faults =
      CrashHeavySchedule(BuildFleet(config.fleet), config.workload.window_steps, 7);
  ExpectWorkloadGolden(config, 0x8fdbfd7dbfa4b3a4ULL);
}

TEST(GeneratorGoldenTest, CommittedScenario) {
  // The scenario suite's fleet and window (tests/scenario_test.cc).
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 48;
  config.workload.window_steps = 240;
  config.workload.scenario = scenario::LoadScenarioFile(
      std::string(EBS_TEST_DATA_DIR) + "/scenarios/flash_crowd.scn",
      scenario::LimitsForFleet(BuildFleet(config.fleet), config.workload.window_steps));
  ExpectWorkloadGolden(config, 0x934e3feb977a6a50ULL);
}

}  // namespace
}  // namespace ebs
