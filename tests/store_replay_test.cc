// Replay-from-store integration: the acceptance contract of the EBST format.
// A store recorded from a run drives StreamingSimulation to the same
// fingerprint, metrics, rollups, and fault stats as the generating run — at
// any worker count, at both precisions, whether the store was batch-written
// or streamed through StoreWriterSink, and with a crash-heavy fault schedule
// annotating the records. Also pins the failure modes: trace-only stores are
// rejected at construction (kNoMetrics) and a store recorded from a different
// fleet is rejected before replay starts (kMismatch).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/fault/schedule.h"
#include "src/obs/metrics.h"
#include "src/replay/sinks.h"
#include "src/trace/format.h"
#include "src/trace/store.h"

namespace ebs {
namespace {

// The acceptance configuration from ISSUE: the default small fleet.
SimulationConfig SmallConfig() {
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 40;
  config.workload.window_steps = 120;
  return config;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void ExpectFaultStatsEqual(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.slowed, b.slowed);
  EXPECT_EQ(a.hiccuped, b.hiccuped);
  EXPECT_EQ(a.degraded_steps, b.degraded_steps);
}

TEST(StoreReplayTest, ReplayFromStoreIsFingerprintIdenticalAtAnyWorkerCount) {
  const SimulationConfig config = SmallConfig();
  const EbsSimulation batch(config);
  const uint64_t golden = AggregateFingerprint(batch.traces());
  const size_t golden_events = batch.traces().records.size();

  const std::string path = TempPath("replay_export.ebst");
  ASSERT_TRUE(WriteWorkloadToStore(path, batch.workload(),
                                   config.workload.step_seconds,
                                   {.precision = StorePrecision::kExport}));

  for (const size_t workers : {1u, 2u, 4u}) {
    StreamingSimulation replay(path, config, {.worker_threads = workers});
    replay.Run();
    EXPECT_EQ(AggregateFingerprint(replay.traces()), golden) << workers << " workers";
    EXPECT_EQ(replay.stats().events, golden_events) << workers << " workers";
    EXPECT_EQ(replay.fault_driver(), nullptr);

    // The full-scale metrics came from the store's metrics section; they must
    // match the generating run exactly, and the online rollups folded from the
    // replayed stream must match the batch rollups.
    ASSERT_EQ(replay.metrics().qp_series.size(), batch.metrics().qp_series.size());
    for (size_t q = 0; q < replay.metrics().qp_series.size(); ++q) {
      EXPECT_EQ(replay.metrics().qp_series[q].TotalBytes(),
                batch.metrics().qp_series[q].TotalBytes())
          << "qp " << q << ", " << workers << " workers";
    }
    ASSERT_EQ(replay.VdSeries().size(), batch.VdSeries().size());
    for (size_t v = 0; v < replay.VdSeries().size(); ++v) {
      EXPECT_EQ(replay.VdSeries()[v].TotalBytes(), batch.VdSeries()[v].TotalBytes())
          << "vd " << v << ", " << workers << " workers";
    }
  }
  std::remove(path.c_str());
}

TEST(StoreReplayTest, ExactPrecisionStoreReplaysBitIdenticalTraces) {
  const SimulationConfig config = SmallConfig();
  const EbsSimulation batch(config);

  const std::string path = TempPath("replay_exact.ebst");
  ASSERT_TRUE(WriteWorkloadToStore(path, batch.workload(),
                                   config.workload.step_seconds,
                                   {.precision = StorePrecision::kExact}));

  StreamingSimulation replay(path, config, {.worker_threads = 2});
  replay.Run();
  std::remove(path.c_str());

  const auto& got = replay.traces().records;
  const auto& want = batch.traces().records;
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].timestamp, want[i].timestamp) << "record " << i;
    ASSERT_EQ(got[i].offset, want[i].offset) << "record " << i;
    ASSERT_EQ(got[i].size_bytes, want[i].size_bytes) << "record " << i;
    ASSERT_EQ(got[i].vd.value(), want[i].vd.value()) << "record " << i;
    for (int c = 0; c < kStackComponentCount; ++c) {
      ASSERT_EQ(got[i].latency.component_us[c], want[i].latency.component_us[c])
          << "record " << i << " component " << c;
    }
  }
  ExpectFaultStatsEqual(replay.fault_stats(), batch.fault_stats());
}

TEST(StoreReplayTest, StoreRecordedThroughSinkReplaysIdentically) {
  // Record with the streaming pipeline itself (StoreWriterSink, bounded
  // memory) rather than batch-writing a materialized dataset, then replay the
  // recording. Round trip: generate -> sink -> disk -> replay.
  const SimulationConfig config = SmallConfig();
  const std::string path = TempPath("replay_sink.ebst");

  StreamingSimulation record(config, {.worker_threads = 2});
  StoreWriterSink sink(path, kTraceSamplingRate,
                       {.precision = StorePrecision::kExport, .chunk_records = 512});
  record.AddSink(&sink);
  record.Run();
  ASSERT_TRUE(sink.Finish(record.workload()));
  const uint64_t golden = AggregateFingerprint(record.traces());

  StreamingSimulation replay(path, config, {.worker_threads = 4});
  replay.Run();
  std::remove(path.c_str());
  EXPECT_EQ(AggregateFingerprint(replay.traces()), golden);
  EXPECT_EQ(replay.stats().events, record.stats().events);
}

TEST(StoreReplayTest, FaultAnnotatedRunRoundTripsThroughStore) {
  SimulationConfig config = SmallConfig();
  config.workload.window_steps = 60;
  const Fleet fleet = BuildFleet(config.fleet);
  config.workload.faults =
      CrashHeavySchedule(fleet, config.workload.window_steps, /*seed=*/2024);

  const EbsSimulation batch(config);
  const FaultStats& stats = batch.fault_stats();
  ASSERT_GT(stats.issued, 0u);  // the schedule must actually bite

  const std::string path = TempPath("replay_faults.ebst");
  ASSERT_TRUE(WriteWorkloadToStore(path, batch.workload(),
                                   config.workload.step_seconds,
                                   {.precision = StorePrecision::kExport}));

  StreamingSimulation replay(path, config, {.worker_threads = 2});
  replay.Run();
  std::remove(path.c_str());

  EXPECT_EQ(AggregateFingerprint(replay.traces()), AggregateFingerprint(batch.traces()));
  ExpectFaultStatsEqual(replay.fault_stats(), stats);

  // Fault annotations survive the store: the replayed records carry the same
  // retry/timeout/failover marks.
  uint64_t batch_retries = 0, replay_retries = 0;
  uint64_t batch_failovers = 0, replay_failovers = 0;
  for (const TraceRecord& r : batch.traces().records) {
    batch_retries += r.fault_retries;
    batch_failovers += r.fault_failed_over ? 1 : 0;
  }
  for (const TraceRecord& r : replay.traces().records) {
    replay_retries += r.fault_retries;
    replay_failovers += r.fault_failed_over ? 1 : 0;
  }
  EXPECT_GT(batch_retries + batch_failovers, 0u);
  EXPECT_EQ(replay_retries, batch_retries);
  EXPECT_EQ(replay_failovers, batch_failovers);
}

TEST(StoreReplayTest, DegradedStepsCounterCountsEachRunOnce) {
  // fault.degraded_steps is a per-run total. A live faulted run with control
  // builds a second fault driver for the plane, and store replay without
  // control builds none; each run still adds its degraded steps exactly once.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const obs::Counter* counter = registry.GetCounter("fault.degraded_steps");

  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 24;
  config.workload.window_steps = 60;
  config.workload.faults =
      CrashHeavySchedule(BuildFleet(config.fleet), config.workload.window_steps, /*seed=*/7);
  const std::string path = TempPath("degraded_steps.ebst");
  uint64_t degraded = 0;
  {
    const EbsSimulation recorded(config);
    degraded = recorded.fault_stats().degraded_steps;
    ASSERT_TRUE(WriteWorkloadToStore(path, recorded.workload(), config.workload.step_seconds,
                                     {.precision = StorePrecision::kExact}));
  }
  ASSERT_GT(degraded, 0u);

  for (const bool control : {false, true}) {
    SimulationConfig run_config = config;
    run_config.control.enabled = control;
    registry.Reset();
    StreamingSimulation live(run_config);
    live.Run();
    EXPECT_EQ(live.fault_stats().degraded_steps, degraded) << "control=" << control;
    EXPECT_EQ(counter->Value(), degraded) << "live, control=" << control;

    registry.Reset();
    StreamingSimulation replay(path, run_config);
    replay.Run();
    EXPECT_EQ(replay.fault_stats().degraded_steps, degraded) << "control=" << control;
    EXPECT_EQ(counter->Value(), degraded) << "store replay, control=" << control;
  }
  std::remove(path.c_str());
  registry.set_enabled(was_enabled);
  registry.Reset();
}

TEST(StoreReplayTest, TraceOnlyStoreIsRejectedAtConstruction) {
  const SimulationConfig config = SmallConfig();
  const EbsSimulation batch(config);
  const std::string path = TempPath("replay_no_metrics.ebst");
  ASSERT_TRUE(WriteDatasetToStore(path, batch.traces(),
                                  config.workload.step_seconds,
                                  static_cast<uint32_t>(config.workload.window_steps)));
  try {
    StreamingSimulation replay(path, config);
    ADD_FAILURE() << "trace-only store accepted for replay";
  } catch (const TraceStoreError& error) {
    EXPECT_EQ(error.code(), StoreErrorCode::kNoMetrics);
  }
  std::remove(path.c_str());
}

TEST(StoreReplayTest, StoreFromDifferentFleetIsRejected) {
  const SimulationConfig recorded_config = SmallConfig();
  const EbsSimulation batch(recorded_config);
  const std::string path = TempPath("replay_mismatch.ebst");
  ASSERT_TRUE(WriteWorkloadToStore(path, batch.workload(),
                                   recorded_config.workload.step_seconds));

  SimulationConfig other = SmallConfig();
  other.fleet.user_count = 8;  // different topology than the recording
  try {
    StreamingSimulation replay(path, other);
    replay.Run();
    ADD_FAILURE() << "mismatched fleet accepted for replay";
  } catch (const TraceStoreError& error) {
    EXPECT_EQ(error.code(), StoreErrorCode::kMismatch);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ebs
