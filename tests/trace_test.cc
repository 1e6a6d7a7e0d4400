// Tests for the dataset schemas, rollups and trace aggregation.

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/fault/schedule.h"
#include "src/replay/parallel_generate.h"
#include "src/scenario/builders.h"
#include "src/scenario/model.h"
#include "src/scenario/parser.h"
#include "src/topology/fleet.h"
#include "src/trace/aggregate.h"
#include "src/trace/records.h"
#include "src/trace/store.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

class TraceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FleetConfig fleet_config;
    fleet_config.seed = 77;
    fleet_config.user_count = 30;
    fleet_ = new Fleet(BuildFleet(fleet_config));
    WorkloadConfig workload_config;
    workload_config.seed = 99;
    workload_config.window_steps = 120;
    result_ = new WorkloadResult(WorkloadGenerator(*fleet_, workload_config).Generate());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete fleet_;
    result_ = nullptr;
    fleet_ = nullptr;
  }

  static Fleet* fleet_;
  static WorkloadResult* result_;
};

Fleet* TraceFixture::fleet_ = nullptr;
WorkloadResult* TraceFixture::result_ = nullptr;

TEST(SegmentSeriesMapTest, FindOrCreateConstructsInPlaceOnce) {
  SegmentSeriesMap map;
  RwSeries& first = map.FindOrCreate(7, 5, 1.0);
  EXPECT_EQ(first.read_bytes.size(), 5u);
  first.read_bytes[2] = 3.0;
  // Second call must return the same series, not a freshly constructed one.
  RwSeries& again = map.FindOrCreate(7, 5, 1.0);
  EXPECT_EQ(&again, &first);
  EXPECT_DOUBLE_EQ(again.read_bytes[2], 3.0);
  EXPECT_EQ(map.size(), 1u);
}

TEST(SegmentSeriesMapTest, FindReturnsNullForAbsentId) {
  SegmentSeriesMap map;
  EXPECT_FALSE(map.Find(3).has_value());
  map.FindOrCreate(3, 2, 1.0);
  EXPECT_TRUE(map.Find(3).has_value());
  EXPECT_FALSE(map.Find(2).has_value());
  EXPECT_FALSE(map.Find(4).has_value());  // beyond any registered id
  EXPECT_FALSE(map.Find(999).has_value());
}

TEST(SegmentSeriesMapTest, SortedItemsAscendingRegardlessOfInsertOrder) {
  SegmentSeriesMap map;
  for (const uint32_t id : {9u, 2u, 17u, 5u, 3u}) {
    map.FindOrCreate(id, 1, 1.0);
  }
  uint32_t prev = 0;
  size_t seen = 0;
  map.ForEachSorted([&](uint32_t id, const RwSeries& series) {
    if (seen > 0) {
      EXPECT_GT(id, prev);
    }
    EXPECT_EQ(series.read_bytes.size(), 1u);
    prev = id;
    ++seen;
  });
  EXPECT_EQ(seen, 5u);
}

TEST(SegmentSeriesMapTest, InsertOverwritesExistingSeries) {
  SegmentSeriesMap map;
  map.FindOrCreate(4, 2, 1.0).read_bytes[0] = 1.0;
  RwSeries replacement(2, 1.0);
  replacement.read_bytes[0] = 8.0;
  map.Insert(4, std::move(replacement));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_DOUBLE_EQ(map.Find(4)->Bytes(OpType::kRead, 0), 8.0);
}

// Two VDs' delivered sources; VD 0 carries segments 12 and 3, VD 1 segment 7.
SegmentSeriesMap DerivedMap() {
  SegmentSeriesMap map;
  std::vector<RwSeries>& sources = map.ResetSources(2, 2, 1.0);
  sources[0].read_bytes[1] = 8.0;
  sources[0].read_ops[1] = 2.0;
  sources[0].write_bytes[0] = 5.0;
  sources[0].write_ops[0] = 1.0;
  sources[1].write_bytes[1] = 3.0;
  map.AssignEntries({{12, 0, 0.75, 0.5}, {7, 1, 0.0, 1.0}, {3, 0, 0.25, 0.0}});
  return map;
}

TEST(SegmentSeriesMapTest, DerivedEntriesReadTheirSourceTimesTheWeight) {
  const SegmentSeriesMap map = DerivedMap();
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map[0].id, 3u);  // sorted by AssignEntries
  EXPECT_EQ(map[1].id, 7u);
  EXPECT_EQ(map[2].id, 12u);

  const RwSeries seg3 = map.Find(3)->Materialize();
  EXPECT_EQ(seg3.read_bytes[1], 2.0);
  EXPECT_EQ(seg3.read_ops[1], 0.5);
  // A zero weight reads 0.0 whatever the source holds.
  EXPECT_EQ(seg3.write_bytes[0], 0.0);
  EXPECT_EQ(seg3.write_ops[0], 0.0);

  const std::optional<SegmentView> seg12 = map.Find(12);
  ASSERT_TRUE(seg12.has_value());
  EXPECT_EQ(seg12->Bytes(OpType::kRead, 1), 6.0);
  EXPECT_EQ(seg12->Bytes(OpType::kWrite, 0), 2.5);
  EXPECT_EQ(seg12->Materialize().read_ops[1], 1.5);
  EXPECT_EQ(seg12->Materialize().write_ops[0], 0.5);
  EXPECT_EQ(map.Find(7)->Bytes(OpType::kWrite, 1), 3.0);
  EXPECT_EQ(map.Find(7)->Bytes(OpType::kRead, 1), 0.0);
  EXPECT_FALSE(map.Find(8).has_value());

  std::vector<uint32_t> ids;
  map.ForEachSorted([&](uint32_t id, const RwSeries& series) {
    ids.push_back(id);
    EXPECT_EQ(series.read_bytes.size(), 2u);
  });
  EXPECT_EQ(ids, (std::vector<uint32_t>{3, 7, 12}));
}

TEST(SegmentSeriesMapTest, WritingADerivedEntryMaterializesItFirst) {
  SegmentSeriesMap map = DerivedMap();
  RwSeries& seg12 = map.FindOrCreate(12, 2, 1.0);
  EXPECT_EQ(seg12.read_bytes[1], 6.0);
  seg12.read_bytes[1] = 100.0;
  EXPECT_EQ(map.Find(12)->Bytes(OpType::kRead, 1), 100.0);
  // Segment 3 reads the same VD source, which the write left alone.
  EXPECT_EQ(map.Find(3)->Bytes(OpType::kRead, 1), 2.0);

  map.Insert(7, RwSeries(2, 1.0));
  EXPECT_EQ(map.Find(7)->Bytes(OpType::kWrite, 1), 0.0);
  EXPECT_EQ(map.size(), 3u);
}

TEST(SegmentSeriesMapTest, AssignEntriesRejectsRepeatedIdsAndUnknownSources) {
  SegmentSeriesMap map;
  map.ResetSources(1, 2, 1.0);
  EXPECT_THROW(map.AssignEntries({{4, 0, 1.0, 0.0}, {4, 0, 0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(map.AssignEntries({{4, 1, 1.0, 0.0}}), std::invalid_argument);
}

TEST(RwSeriesTest, AccumulateAddsAllFour) {
  RwSeries a(3, 1.0);
  RwSeries b(3, 1.0);
  a.read_bytes[0] = 1.0;
  b.read_bytes[0] = 2.0;
  b.write_ops[2] = 5.0;
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a.read_bytes[0], 3.0);
  EXPECT_DOUBLE_EQ(a.write_ops[2], 5.0);
}

TEST(RwSeriesTest, AccumulateChecksEveryChannelBeforeAddingAny) {
  // A channel of another length throws in every build, and since all four are
  // checked first, the target keeps every cell: a mismatch in the last
  // channel must not leave the first three added.
  RwSeries before(3, 1.0);
  for (size_t t = 0; t < 3; ++t) {
    before.read_bytes[t] = 1.0 + static_cast<double>(t);
    before.write_bytes[t] = 10.0 + static_cast<double>(t);
    before.read_ops[t] = 100.0 + static_cast<double>(t);
    before.write_ops[t] = 1000.0 + static_cast<double>(t);
  }
  const auto channels = [](RwSeries& series) {
    return std::vector<TimeSeries*>{&series.read_bytes, &series.write_bytes, &series.read_ops,
                                    &series.write_ops};
  };
  for (size_t channel = 0; channel < 4; ++channel) {
    for (const size_t length : {size_t{0}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "channel " << channel << " length " << length);
      RwSeries other(3, 1.0);
      for (TimeSeries* series : channels(other)) {
        *series = TimeSeries(3, 1.0, 5.0);
      }
      *channels(other)[channel] = TimeSeries(length, 1.0, 5.0);
      RwSeries target = before;
      EXPECT_THROW(target.Accumulate(other), std::invalid_argument);
      const std::vector<TimeSeries*> got = channels(target);
      const std::vector<TimeSeries*> want = channels(before);
      for (size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(std::vector<double>(got[c]->values().begin(), got[c]->values().end()),
                  std::vector<double>(want[c]->values().begin(), want[c]->values().end()))
            << c;
      }
    }
  }
}

TEST(RwSeriesTest, OpSelectors) {
  RwSeries series(2, 1.0);
  series.MutableBytes(OpType::kRead)[0] = 1.0;
  series.MutableBytes(OpType::kWrite)[0] = 2.0;
  series.MutableOps(OpType::kRead)[1] = 3.0;
  EXPECT_DOUBLE_EQ(series.Bytes(OpType::kRead)[0], 1.0);
  EXPECT_DOUBLE_EQ(series.Bytes(OpType::kWrite)[0], 2.0);
  EXPECT_DOUBLE_EQ(series.Ops(OpType::kRead)[1], 3.0);
  EXPECT_DOUBLE_EQ(series.TotalBytes(), 3.0);
}

TEST(MetricDatasetTest, SegmentSeriesCreatedLazily) {
  MetricDataset metrics;
  metrics.window_steps = 4;
  metrics.step_seconds = 1.0;
  EXPECT_FALSE(metrics.SegmentSeries(SegmentId(7)).has_value());
  RwSeries& series = metrics.MutableSegmentSeries(SegmentId(7));
  series.read_bytes[0] = 1.0;
  ASSERT_TRUE(metrics.SegmentSeries(SegmentId(7)).has_value());
  EXPECT_DOUBLE_EQ(metrics.SegmentSeries(SegmentId(7))->Bytes(OpType::kRead, 0), 1.0);
  // Second access returns the same series.
  metrics.MutableSegmentSeries(SegmentId(7)).read_bytes[0] += 1.0;
  EXPECT_DOUBLE_EQ(metrics.SegmentSeries(SegmentId(7))->Bytes(OpType::kRead, 0), 2.0);
}

TEST_F(TraceFixture, RollupsConserveTotals) {
  const MetricDataset& metrics = result_->metrics;
  double qp_total = 0.0;
  for (const RwSeries& series : metrics.qp_series) {
    qp_total += series.TotalBytes();
  }
  for (const auto rollup :
       {RollupToVd, RollupToVm, RollupToUser, RollupToWt, RollupToComputeNode}) {
    double total = 0.0;
    for (const RwSeries& series : rollup(*fleet_, metrics)) {
      total += series.TotalBytes();
    }
    EXPECT_NEAR(total, qp_total, qp_total * 1e-9);
  }
}

TEST_F(TraceFixture, StorageRollupsConserveSegmentTotals) {
  const MetricDataset& metrics = result_->metrics;
  double seg_total = 0.0;
  metrics.segment_series.ForEachSorted(
      [&seg_total](uint32_t, const RwSeries& series) { seg_total += series.TotalBytes(); });
  for (const auto rollup : {RollupToBlockServer, RollupToStorageNode}) {
    double total = 0.0;
    for (const RwSeries& series : rollup(*fleet_, metrics)) {
      total += series.TotalBytes();
    }
    EXPECT_NEAR(total, seg_total, seg_total * 1e-9);
  }
}

TEST_F(TraceFixture, ComputeAndStorageDomainsAgree) {
  // Segment traffic is derived from the same delivered per-VD traffic as QP
  // traffic, so the two domains must total the same bytes.
  const MetricDataset& metrics = result_->metrics;
  double qp_total = 0.0;
  for (const RwSeries& series : metrics.qp_series) {
    qp_total += series.TotalBytes();
  }
  double seg_total = 0.0;
  metrics.segment_series.ForEachSorted(
      [&seg_total](uint32_t, const RwSeries& series) { seg_total += series.TotalBytes(); });
  EXPECT_NEAR(seg_total, qp_total, qp_total * 1e-6);
}

TEST_F(TraceFixture, TraceRecordsReferenceConsistentEntities) {
  for (const TraceRecord& r : result_->traces.records) {
    const Qp& qp = fleet_->qps[r.qp.value()];
    EXPECT_EQ(qp.vd, r.vd);
    EXPECT_EQ(qp.vm, r.vm);
    EXPECT_EQ(qp.node, r.cn);
    EXPECT_EQ(qp.bound_wt, r.wt);
    EXPECT_EQ(fleet_->vms[r.vm.value()].user, r.user);
    EXPECT_EQ(fleet_->SegmentForOffset(r.vd, r.offset), r.segment);
    EXPECT_EQ(fleet_->segments[r.segment.value()].server, r.bs);
    EXPECT_EQ(fleet_->block_servers[r.bs.value()].node, r.sn);
  }
}

TEST_F(TraceFixture, TracesSortedByTimestamp) {
  const auto& records = result_->traces.records;
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].timestamp, records[i].timestamp);
  }
}

TEST_F(TraceFixture, TraceCountsSplitByOp) {
  const TraceDataset& traces = result_->traces;
  EXPECT_EQ(traces.CountOps(OpType::kRead) + traces.CountOps(OpType::kWrite),
            traces.records.size());
  EXPECT_GT(traces.CountOps(OpType::kWrite), traces.CountOps(OpType::kRead));
}

TEST_F(TraceFixture, SampledBytesPositive) {
  EXPECT_GT(result_->traces.SampledBytes(OpType::kWrite), 0.0);
  EXPECT_GT(result_->traces.SampledBytes(OpType::kRead), 0.0);
}

TEST_F(TraceFixture, AggregateTracesApproximatesMetrics) {
  // Scaling sampled traces by 1/rate should land near the true delivered
  // volume (law of large numbers; tolerance is generous).
  const MetricDataset rebuilt = AggregateTraces(
      *fleet_, result_->traces, result_->metrics.step_seconds, result_->metrics.window_steps);
  double rebuilt_total = 0.0;
  for (const RwSeries& series : rebuilt.qp_series) {
    rebuilt_total += series.TotalBytes();
  }
  double true_total = 0.0;
  for (const RwSeries& series : result_->metrics.qp_series) {
    true_total += series.TotalBytes();
  }
  EXPECT_NEAR(rebuilt_total, true_total, true_total * 0.15);
}

TEST_F(TraceFixture, DownsampleKeepsApproximateFraction) {
  Rng rng(5);
  const TraceDataset thinned = DownsampleTraces(result_->traces, 0.25, rng);
  const double fraction = static_cast<double>(thinned.records.size()) /
                          static_cast<double>(result_->traces.records.size());
  EXPECT_NEAR(fraction, 0.25, 0.02);
  EXPECT_DOUBLE_EQ(thinned.sampling_rate, result_->traces.sampling_rate * 0.25);
}

// --- Storage domain: golden cells and copy safety ----------------------------

// The segment-cell fingerprint of `config` from the batch facade, from the
// streaming facade at 1 and 4 workers, and from a replay of the batch run's
// EBST store; each must equal `golden`.
void ExpectSegmentCells(const SimulationConfig& config, uint64_t golden, const std::string& what) {
  const EbsSimulation batch(config);
  const uint64_t batch_print = SegmentCellsFingerprint(batch.metrics());
  EXPECT_EQ(batch_print, golden) << what << " batch" << std::hex << " actual=0x" << batch_print;
  for (const size_t workers : {1u, 4u}) {
    StreamingSimulation stream(config, {.worker_threads = workers});
    stream.Run();
    const uint64_t print = SegmentCellsFingerprint(stream.metrics());
    EXPECT_EQ(print, golden) << what << " @ " << workers << " workers" << std::hex
                             << " actual=0x" << print;
  }

  // Per-process name: ctest runs the golden cases as parallel processes.
  const std::string path = std::string(::testing::TempDir()) + "/" +
                           std::to_string(getpid()) + "_segment_cells.ebst";
  ASSERT_TRUE(WriteWorkloadToStore(path, batch.workload(), config.workload.step_seconds));
  StreamingSimulation replay(path, config);
  replay.Run();
  std::remove(path.c_str());
  const uint64_t replay_print = SegmentCellsFingerprint(replay.metrics());
  EXPECT_EQ(replay_print, golden) << what << " store replay" << std::hex << " actual=0x"
                                  << replay_print;
}

// Golden fingerprints of every segment cell (SegmentCellsFingerprint). Each
// input must reproduce them bit for bit from both facades at any worker count.
TEST(StorageDomainGoldenTest, DcPresetSegmentCellsMatchGoldenFingerprints) {
  ExpectSegmentCells(DcPreset(1), 0x25d7f273957190c7ULL, "DcPreset(1)");

  // The perf ledger's closed_loop traffic: a diurnal burst scenario over a
  // crash-heavy fault schedule.
  SimulationConfig closed_loop = DcPreset(1);
  const size_t steps = closed_loop.workload.window_steps;
  closed_loop.workload.scenario =
      scenario::DiurnalBurstScenario(steps, closed_loop.fleet.user_count);
  closed_loop.workload.faults = CrashHeavySchedule(BuildFleet(closed_loop.fleet), steps, 7);
  ExpectSegmentCells(closed_loop, 0xa9303d7b431adb3dULL, "closed loop");
}

TEST(StorageDomainGoldenTest, CommittedScenariosMatchGoldenFingerprints) {
  // The scenario suite's fleet and window (tests/scenario_test.cc).
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 48;
  config.workload.window_steps = 240;
  const scenario::ScenarioLimits limits =
      scenario::LimitsForFleet(BuildFleet(config.fleet), config.workload.window_steps);
  struct Golden {
    const char* corpus;
    uint64_t fingerprint;
  };
  constexpr Golden kGolden[] = {{"churn.scn", 0x332728f2eb659122ULL},
                                {"diurnal.scn", 0xe748172871db6012ULL},
                                {"flash_crowd.scn", 0x7999af1c2179eb24ULL},
                                {"identity.scn", 0x0eaced5cc2b8b02dULL},
                                {"snapshot_scan.scn", 0xb9a6f6f48269bc1bULL}};
  for (const Golden& golden : kGolden) {
    config.workload.scenario = scenario::LoadScenarioFile(
        std::string(EBS_TEST_DATA_DIR) + "/scenarios/" + golden.corpus, limits);
    ExpectSegmentCells(config, golden.fingerprint, golden.corpus);
  }
}

TEST(StorageDomainTest, CopiedAndMovedResultsReadTheSameSegmentCells) {
  // A copy, and a moved-from result that is assigned again, must read their
  // own segment storage: with the original gone, a source the copy still
  // shared with it would be a use after free (the suite runs under ASan).
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 24;
  config.workload.window_steps = 120;
  const Fleet fleet = BuildFleet(config.fleet);
  for (const size_t workers : {0u, 2u}) {  // 0: the batch generator
    auto original = std::make_unique<WorkloadResult>(
        workers == 0 ? WorkloadGenerator(fleet, config.workload).Generate()
                     : GenerateWorkloadParallel(fleet, config.workload, workers));
    ASSERT_GT(original->metrics.segment_series.size(), 0u);
    const uint64_t print = SegmentCellsFingerprint(original->metrics);

    const WorkloadResult copy = *original;
    WorkloadResult moved = std::move(*original);
    *original = copy;
    EXPECT_EQ(SegmentCellsFingerprint(moved.metrics), print) << workers << " workers";
    moved = WorkloadResult{};
    EXPECT_EQ(SegmentCellsFingerprint(original->metrics), print) << workers << " workers";
    original.reset();
    EXPECT_EQ(SegmentCellsFingerprint(copy.metrics), print) << workers << " workers";
  }
}

}  // namespace
}  // namespace ebs
