// Tests for the GC model and the full-rate per-VD IO stream generator.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/core/config.h"
#include "src/trace/gc_model.h"
#include "src/workload/io_stream.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

TEST(GcModelTest, ScheduleTriggersOnAccumulatedWrites) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  MetricDataset metrics = MakeEmptyMetrics(fleet, 20);
  // Segment 0 (on BS0) writes 1 GB/step: with a 5 GB trigger and 2 s GC, a
  // collection starts every 5 steps after the previous one ends.
  TimeSeries& writes = metrics.MutableSegmentSeries(SegmentId(0)).write_bytes;
  for (size_t t = 0; t < 20; ++t) {
    writes[t] = 1e9;
  }
  GcConfig config;
  config.trigger_bytes = 5e9;
  config.duration_seconds = 2.0;
  const GcSchedule schedule = BuildGcSchedule(fleet, metrics, config);
  EXPECT_GE(schedule.total_windows, 3u);
  EXPECT_TRUE(schedule.windows[0].size() >= 3);
  // Other BSs never collect.
  EXPECT_TRUE(schedule.windows[1].empty());
}

TEST(GcModelTest, InGcLookup) {
  GcSchedule schedule;
  schedule.windows.resize(2);
  schedule.windows[0] = {{5.0, 8.0}, {15.0, 18.0}};
  EXPECT_FALSE(schedule.InGc(BlockServerId(0), 4.9));
  EXPECT_TRUE(schedule.InGc(BlockServerId(0), 5.0));
  EXPECT_TRUE(schedule.InGc(BlockServerId(0), 7.9));
  EXPECT_FALSE(schedule.InGc(BlockServerId(0), 8.0));
  EXPECT_TRUE(schedule.InGc(BlockServerId(0), 16.0));
  EXPECT_FALSE(schedule.InGc(BlockServerId(1), 6.0));
  EXPECT_FALSE(schedule.InGc(BlockServerId(9), 6.0));  // out of range is safe
}

TEST(GcModelTest, ApplyInflatesOnlyAffectedRecords) {
  GcSchedule schedule;
  schedule.windows.resize(1);
  schedule.windows[0] = {{2.0, 4.0}};
  TraceDataset traces;
  traces.window_seconds = 10.0;
  for (int i = 0; i < 10; ++i) {
    TraceRecord r;
    r.timestamp = static_cast<double>(i);
    r.bs = BlockServerId(0);
    r.latency.component_us[static_cast<int>(StackComponent::kChunkServer)] = 100.0;
    traces.records.push_back(r);
  }
  GcConfig config;
  config.cs_latency_multiplier = 5.0;
  EXPECT_EQ(ApplyGcModel(traces, schedule, config), 2u);  // t=2 and t=3
  const int cs = static_cast<int>(StackComponent::kChunkServer);
  EXPECT_DOUBLE_EQ(traces.records[2].latency.component_us[cs], 500.0);
  EXPECT_DOUBLE_EQ(traces.records[3].latency.component_us[cs], 500.0);
  EXPECT_DOUBLE_EQ(traces.records[5].latency.component_us[cs], 100.0);
}

class IoStreamFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    FleetConfig config;
    config.seed = 21;
    config.user_count = 10;
    fleet_ = BuildFleet(config);
    // A VD with several segments.
    for (const Vd& vd : fleet_.vds) {
      if (vd.segments.size() >= 8) {
        vd_ = vd.id;
        return;
      }
    }
    vd_ = fleet_.vds[0].id;
  }
  Fleet fleet_;
  VdId vd_;
};

TEST_F(IoStreamFixture, StreamIsOrderedAndValid) {
  IoStreamConfig config;
  config.window_steps = 30;
  const auto stream = GenerateFullRateStream(fleet_, vd_, config);
  ASSERT_FALSE(stream.empty());
  double prev = 0.0;
  const uint64_t capacity = fleet_.vds[vd_.value()].capacity_bytes;
  for (const TraceRecord& r : stream) {
    EXPECT_GE(r.timestamp, prev);
    prev = r.timestamp;
    EXPECT_LT(r.offset, capacity);
    EXPECT_EQ(r.vd, vd_);
    EXPECT_EQ(fleet_.SegmentForOffset(vd_, r.offset), r.segment);
  }
}

// The prefetcher study's stream (bench_ablation_cache: DcPreset(1)'s first
// BigData VD with at least 8 segments, 60 steps at 120/80 MB/s). A step's
// first read and first write share a timestamp; the sort must keep them in
// emission order, read first, not in an unspecified tie order.
TEST(IoStreamOrderTest, EqualTimestampsKeepReadsBeforeWrites) {
  const Fleet fleet = BuildFleet(DcPreset(1).fleet);
  const Vd* scan_vd = nullptr;
  for (const Vd& vd : fleet.vds) {
    if (fleet.vms[vd.vm.value()].app == AppType::kBigData && vd.segments.size() >= 8) {
      scan_vd = &vd;
      break;
    }
  }
  ASSERT_NE(scan_vd, nullptr);
  IoStreamConfig config;
  config.window_steps = 60;
  config.read_rate_mbps = 120.0;
  config.write_rate_mbps = 80.0;
  const auto stream = GenerateFullRateStream(fleet, scan_vd->id, config);
  size_t ties = 0;
  for (size_t i = 1; i < stream.size(); ++i) {
    if (stream[i].timestamp != stream[i - 1].timestamp) {
      continue;
    }
    ++ties;
    EXPECT_FALSE(stream[i - 1].op == OpType::kWrite && stream[i].op == OpType::kRead)
        << "a read follows a write at t=" << stream[i].timestamp << " (record " << i << ")";
  }
  EXPECT_GT(ties, 0u);
}

TEST_F(IoStreamFixture, VolumeRoughlyMatchesConfiguredRates) {
  IoStreamConfig config;
  config.window_steps = 60;
  config.read_rate_mbps = 10.0;
  config.write_rate_mbps = 40.0;
  const auto stream = GenerateFullRateStream(fleet_, vd_, config);
  double read_bytes = 0.0;
  double write_bytes = 0.0;
  for (const TraceRecord& r : stream) {
    (r.op == OpType::kRead ? read_bytes : write_bytes) += r.size_bytes;
  }
  const double window = 60.0;
  EXPECT_NEAR(write_bytes, 40e6 * window, 40e6 * window * 0.3);
  EXPECT_GT(read_bytes, 0.0);
  EXPECT_LT(read_bytes, write_bytes);
}

TEST_F(IoStreamFixture, MaxIosCapRespected) {
  IoStreamConfig config;
  config.window_steps = 60;
  config.max_ios = 500;
  const auto stream = GenerateFullRateStream(fleet_, vd_, config);
  EXPECT_EQ(stream.size(), 500u);
}

TEST_F(IoStreamFixture, FullRateStreamContainsSequentialReadRuns) {
  // The scan path must produce offset-contiguous read pairs — the pattern
  // the §2.2 prefetcher detects (and that 1/320 sampling destroys).
  IoStreamConfig config;
  config.window_steps = 60;
  config.read_rate_mbps = 100.0;
  const auto stream = GenerateFullRateStream(fleet_, vd_, config);
  // The prefetcher watches per-segment sub-streams, so measure contiguity
  // within each segment's read stream.
  size_t sequential_pairs = 0;
  size_t read_pairs = 0;
  std::unordered_map<uint32_t, uint64_t> last_end;
  for (const TraceRecord& r : stream) {
    if (r.op != OpType::kRead) {
      continue;
    }
    const auto it = last_end.find(r.segment.value());
    if (it != last_end.end()) {
      ++read_pairs;
      sequential_pairs += r.offset == it->second ? 1 : 0;
    }
    last_end[r.segment.value()] = r.offset + r.size_bytes;
  }
  ASSERT_GT(read_pairs, 100u);
  EXPECT_GT(static_cast<double>(sequential_pairs) / static_cast<double>(read_pairs), 0.05);
}

}  // namespace
}  // namespace ebs
