// Tests for the discrete-event queueing backend (src/qmodel).
//
// Three layers: (1) LatencyHist bucket math and interpolation on known
// distributions; (2) QueueSimulator mechanics against hand-computed waits on
// a tiny fleet (no contention, FIFO queueing, overflow shedding, cache-hit
// short-circuit, admission throttling, segment remap, least-loaded dispatch,
// fault-timeout occupancy); (3) the determinism contract — batch and
// streaming at 1/2/4 workers fingerprint bit-identically, with and without a
// crash-heavy fault schedule, and the default (additive) mode is untouched.

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/core/validate.h"
#include "src/fault/schedule.h"
#include "src/qmodel/latency_hist.h"
#include "src/qmodel/queue_model.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

using qmodel::LatencyHist;
using qmodel::QueueModelConfig;
using qmodel::QueueModelResult;
using qmodel::QueueSimulator;
using qmodel::WtDispatch;

// --- LatencyHist --------------------------------------------------------------

TEST(LatencyHistTest, BucketBoundsContainTheirValues) {
  for (const uint64_t v : {0ULL, 1ULL, 7ULL, 8ULL, 9ULL, 15ULL, 16ULL, 100ULL, 1000ULL,
                           123456ULL, (1ULL << 40) + 12345ULL}) {
    const size_t b = LatencyHist::BucketOf(v);
    EXPECT_LE(LatencyHist::BucketLow(b), static_cast<double>(v)) << v;
    EXPECT_GT(LatencyHist::BucketHigh(b), static_cast<double>(v)) << v;
  }
  // Buckets tile the axis: each bucket starts where the previous ends.
  for (size_t b = 1; b < LatencyHist::kBucketCount; ++b) {
    EXPECT_DOUBLE_EQ(LatencyHist::BucketHigh(b - 1), LatencyHist::BucketLow(b)) << b;
  }
}

TEST(LatencyHistTest, EmptyHistogramReadsZero) {
  LatencyHist hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Mean(), 0.0);
}

TEST(LatencyHistTest, InterpolatedPercentilesOnUniformDistribution) {
  LatencyHist hist;
  for (int v = 1; v <= 10000; ++v) {
    hist.Record(static_cast<double>(v));
  }
  // With 12.5% bucket resolution and within-bucket interpolation, uniform
  // occupancy reads back to a few percent.
  EXPECT_NEAR(hist.Percentile(0.50), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(hist.Percentile(0.90), 9000.0, 9000.0 * 0.07);
  EXPECT_NEAR(hist.Percentile(0.99), 9900.0, 9900.0 * 0.07);
  EXPECT_LE(hist.Percentile(0.999), 10000.0);  // capped by the observed max
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 10000.0);
  EXPECT_DOUBLE_EQ(hist.Mean(), 5000.5);
}

TEST(LatencyHistTest, SingleSampleReadsBackExactlyAtEveryQuantile) {
  // One sample: rank is 1 for every q, the within-bucket interpolation puts
  // the rank at the bucket's upper edge, and the observed-max cap pulls the
  // readout back to exactly the recorded value — no bucket quantization.
  LatencyHist hist;
  hist.Record(137.5);
  ASSERT_EQ(hist.count(), 1u);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hist.Percentile(q), 137.5) << "q=" << q;
  }
}

TEST(LatencyHistTest, PercentilesAreMonotoneAndCappedByMax) {
  LatencyHist hist;
  for (const double v : {10.0, 20.0, 20.0, 30.0, 5000.0}) {
    hist.Record(v);
  }
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double p = hist.Percentile(q);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, hist.max_us());
    prev = p;
  }
}

TEST(LatencyHistTest, AccumulateMatchesRecordingEverything) {
  LatencyHist all;
  LatencyHist a;
  LatencyHist b;
  for (int v = 1; v <= 500; ++v) {
    all.Record(static_cast<double>(v * 3));
    ((v % 2) == 0 ? a : b).Record(static_cast<double>(v * 3));
  }
  a.Accumulate(b);
  EXPECT_EQ(a.Fingerprint(), all.Fingerprint());
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum_us(), all.sum_us());
}

TEST(LatencyHistTest, NegativeSamplesClampToZero) {
  LatencyHist hist;
  hist.Record(-5.0);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.max_us(), 0.0);
  EXPECT_EQ(hist.Percentile(0.99), 0.0);
}

TEST(LatencyHistTest, NonFiniteAndHugeSamplesNeverReachTheCast) {
  // A double at or past 2^64 has no uint64_t value (the UBSan stage runs this).
  LatencyHist hist;
  hist.Record(std::numeric_limits<double>::infinity());
  hist.Record(1e30);
  hist.Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.buckets().back(), 2u);
  EXPECT_EQ(hist.buckets().front(), 1u);
  EXPECT_THROW(hist.Record(std::nan("")), std::invalid_argument);
  EXPECT_EQ(hist.count(), 3u);
}

// --- QueueSimulator mechanics -------------------------------------------------

// One VM with one 1-QP VD; 4 WTs, 4 BSs.
Fleet MechFleet() { return MakeTinyFleet({{{1}}}); }

// Deterministic service numbers: transfer costs off (rate 0 disables them),
// CN 5us, WT 10us, frontend 7us, BS 20us + basis 9us (3 BS + 2 backend + 4 CS).
QueueModelConfig MechConfig() {
  QueueModelConfig config;
  config.enabled = true;
  config.wt = {.bytes_per_sec = 0.0, .per_io_us = 10.0, .queue_capacity_us = 0.0};
  config.bs = {.bytes_per_sec = 0.0, .per_io_us = 20.0, .queue_capacity_us = 0.0};
  config.overflow_penalty_us = 8000.0;
  config.flash_read_us = 18.0;
  return config;
}

TraceRecord MechRecord(double timestamp, uint32_t wt = 0, uint32_t bs = 0) {
  TraceRecord r;
  r.timestamp = timestamp;
  r.op = OpType::kRead;
  r.size_bytes = 4096;
  r.user = UserId(0);
  r.vm = VmId(0);
  r.vd = VdId(0);
  r.qp = QpId(0);
  r.wt = WorkerThreadId(wt);
  r.cn = ComputeNodeId(0);
  r.segment = SegmentId(0);
  r.bs = BlockServerId(bs);
  r.sn = StorageNodeId(bs);
  auto& lat = r.latency.component_us;
  lat[static_cast<int>(StackComponent::kComputeNode)] = 5.0;
  lat[static_cast<int>(StackComponent::kFrontendNetwork)] = 7.0;
  lat[static_cast<int>(StackComponent::kBlockServer)] = 3.0;
  lat[static_cast<int>(StackComponent::kBackendNetwork)] = 2.0;
  lat[static_cast<int>(StackComponent::kChunkServer)] = 4.0;
  return r;
}

constexpr double kMechSingleIoUs = 5.0 + 10.0 + 7.0 + (20.0 + 9.0);  // == 51

TEST(QueueSimulatorTest, UncontendedLatencyIsTheServiceSum) {
  const Fleet fleet = MechFleet();
  QueueSimulator sim(fleet, MechConfig(), /*sampling_rate=*/1.0, /*window_seconds=*/1.0);
  sim.Arrive(MechRecord(0.0), 0);
  const QueueModelResult result = sim.Finish();
  ASSERT_EQ(result.events, 1u);
  EXPECT_DOUBLE_EQ(result.total_us.sum_us(), kMechSingleIoUs);
  EXPECT_DOUBLE_EQ(result.queue_wait_sum_us, 0.0);
  EXPECT_EQ(result.wt[0].served, 1u);
  EXPECT_EQ(result.bs[0].served, 1u);
  EXPECT_DOUBLE_EQ(result.wt[0].busy_us, 10.0);
  EXPECT_DOUBLE_EQ(result.bs[0].busy_us, 20.0);  // BS service only; basis is delay
}

TEST(QueueSimulatorTest, FifoQueueingDelaysTheSecondArrival) {
  const Fleet fleet = MechFleet();
  QueueSimulator sim(fleet, MechConfig(), 1.0, 1.0);
  sim.Arrive(MechRecord(0.0), 0);
  sim.Arrive(MechRecord(0.0), 1);
  const QueueModelResult result = sim.Finish();
  ASSERT_EQ(result.events, 2u);
  // Second IO: waits 10us at the WT (behind the first's occupancy), then its
  // BS arrival at t=32 finds the server busy until t=42 -> waits 10 more and
  // completes at 42 + 20 + 9 = 71. Latencies 51 and 71; total queue wait 20.
  EXPECT_DOUBLE_EQ(result.total_us.sum_us(), 51.0 + 71.0);
  EXPECT_DOUBLE_EQ(result.total_us.max_us(), 71.0);
  EXPECT_DOUBLE_EQ(result.queue_wait_sum_us, 20.0);
}

TEST(QueueSimulatorTest, SamplingUpscaleInflatesOccupancyNotService) {
  const Fleet fleet = MechFleet();
  // 1/10 sampling: each sampled IO occupies its servers for a 10-IO batch.
  QueueSimulator sim(fleet, MechConfig(), /*sampling_rate=*/0.1, 1.0);
  sim.Arrive(MechRecord(0.0), 0);
  sim.Arrive(MechRecord(0.0), 1);
  const QueueModelResult result = sim.Finish();
  // First IO still sees single-IO service (51us total): it rides at the head
  // of its batch while its servers stay busy for the whole batch (WT 100us,
  // BS 200us). Second IO: WT arrival t=5 queues behind the batch -> start
  // 105, own depart 115, BS arrival 122, BS busy [22, 222) -> start 222,
  // complete 222 + 20 + 9 = 251.
  EXPECT_DOUBLE_EQ(result.total_us.max_us(), 251.0);
  EXPECT_DOUBLE_EQ(result.wt[0].busy_us, 200.0);   // two 10-IO batches x 10us
  EXPECT_DOUBLE_EQ(result.bs[0].busy_us, 400.0);   // two 10-IO batches x 20us
  EXPECT_DOUBLE_EQ(result.total_us.sum_us(), 51.0 + 251.0);
}

TEST(QueueSimulatorTest, FullQueueShedsWithThePenalty) {
  const Fleet fleet = MechFleet();
  QueueModelConfig config = MechConfig();
  config.wt.queue_capacity_us = 5.0;  // second arrival's 10us backlog overflows
  QueueSimulator sim(fleet, config, 1.0, 1.0);
  sim.Arrive(MechRecord(0.0), 0);
  sim.Arrive(MechRecord(0.0), 1);
  const QueueModelResult result = sim.Finish();
  EXPECT_EQ(result.wt_overflows, 1u);
  EXPECT_EQ(result.wt[0].overflows, 1u);
  EXPECT_EQ(result.wt[0].served, 1u);
  // Shed IO completes at WT-arrival (t=5) + penalty, never reaching the BS.
  EXPECT_DOUBLE_EQ(result.total_us.max_us(), 5.0 + 8000.0);
  EXPECT_EQ(result.bs[0].served, 1u);
  EXPECT_EQ(result.SloViolations(), 1u);  // 8005us > the 2000us read SLO
}

TEST(QueueSimulatorTest, CacheHitShortCircuitsTheStoragePath) {
  const Fleet fleet = MechFleet();
  QueueSimulator sim(fleet, MechConfig(), 1.0, 1.0);
  sim.Arrive(MechRecord(0.0), 0, /*cn_cache_hit=*/true);
  const QueueModelResult result = sim.Finish();
  // CN slice + WT service + flash media; no frontend hop, no BS.
  EXPECT_DOUBLE_EQ(result.total_us.sum_us(), 5.0 + 10.0 + 18.0);
  EXPECT_EQ(result.bs[0].served, 0u);
}

TEST(QueueSimulatorTest, AdmissionCapDelaysSubsequentArrivals) {
  const Fleet fleet = MechFleet();
  QueueModelConfig config = MechConfig();
  // 4096 bytes at 4.096 MB/s = 1000us of admission occupancy per IO.
  config.vd_admission_bytes_per_sec.assign(fleet.vds.size(), 4.096e6);
  QueueSimulator sim(fleet, config, 1.0, 1.0);
  sim.Arrive(MechRecord(0.0), 0);
  sim.Arrive(MechRecord(0.0), 1);
  const QueueModelResult result = sim.Finish();
  // Second IO admitted 1000us late, then sails through an idle pipeline.
  EXPECT_DOUBLE_EQ(result.total_us.max_us(), 1000.0 + kMechSingleIoUs);
  EXPECT_DOUBLE_EQ(result.queue_wait_sum_us, 0.0);
}

TEST(QueueSimulatorTest, SegmentRemapRedirectsBlockServerLoad) {
  const Fleet fleet = MechFleet();
  QueueModelConfig config = MechConfig();
  config.segment_bs_remap.assign(fleet.segments.size(), 3u);
  QueueSimulator sim(fleet, config, 1.0, 1.0);
  sim.Arrive(MechRecord(0.0, /*wt=*/0, /*bs=*/0), 0);
  const QueueModelResult result = sim.Finish();
  EXPECT_EQ(result.bs[0].served, 0u);
  EXPECT_EQ(result.bs[3].served, 1u);
}

TEST(QueueSimulatorTest, RemapSizeIsValidated) {
  const Fleet fleet = MechFleet();
  QueueModelConfig config = MechConfig();
  config.segment_bs_remap.assign(fleet.segments.size() + 1, 0u);
  EXPECT_THROW(QueueSimulator(fleet, config, 1.0, 1.0), std::invalid_argument);
  config.segment_bs_remap.clear();
  config.vd_admission_bytes_per_sec.assign(fleet.vds.size() + 1, 0.0);
  EXPECT_THROW(QueueSimulator(fleet, config, 1.0, 1.0), std::invalid_argument);

  // A full-length table is checked entry by entry, like SetSegmentRemap: an
  // unknown block server used to be read out of bounds on the first arrival.
  config = MechConfig();
  config.segment_bs_remap.assign(fleet.segments.size(), 999999u);
  EXPECT_THROW(QueueSimulator(fleet, config, 1.0, 1.0), std::out_of_range);
  config.segment_bs_remap.assign(fleet.segments.size(), QueueModelConfig::kNoRemap);
  config.segment_bs_remap.back() = static_cast<uint32_t>(fleet.block_servers.size());
  EXPECT_THROW(QueueSimulator(fleet, config, 1.0, 1.0), std::out_of_range);
  config.segment_bs_remap.back() = static_cast<uint32_t>(fleet.block_servers.size() - 1);
  EXPECT_NO_THROW(QueueSimulator(fleet, config, 1.0, 1.0));
}

TEST(QueueSimulatorTest, LeastLoadedDispatchSpreadsAHotWorkerThread) {
  const Fleet fleet = MechFleet();
  // 8 simultaneous IOs all bound to WT 0 while WTs 1..3 idle; the BS tier is
  // spread (bs = i % 4) so the hot WT is the bottleneck being mitigated.
  const auto run = [&fleet](WtDispatch dispatch) {
    QueueModelConfig config = MechConfig();
    config.dispatch = dispatch;
    QueueSimulator sim(fleet, config, 1.0, 1.0);
    for (uint64_t i = 0; i < 8; ++i) {
      sim.Arrive(MechRecord(0.0, /*wt=*/0, /*bs=*/static_cast<uint32_t>(i % 4)), i);
    }
    return sim.Finish();
  };
  const QueueModelResult bound = run(WtDispatch::kRecordBinding);
  const QueueModelResult spread = run(WtDispatch::kLeastLoadedInNode);
  EXPECT_EQ(bound.wt[0].served, 8u);
  EXPECT_EQ(bound.wt[1].served, 0u);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(spread.wt[static_cast<size_t>(w)].served, 2u) << w;
  }
  // The hardware-dispatch what-if strictly reduces WT queueing: tail and mean
  // both improve (the BS stays the shared bottleneck in both runs).
  EXPECT_LT(spread.total_us.max_us(), bound.total_us.max_us());
  EXPECT_LT(spread.total_us.Mean(), bound.total_us.Mean());
}

TEST(QueueSimulatorTest, TimedOutIoConsumesNoBlockServerOccupancy) {
  const Fleet fleet = MechFleet();
  TraceRecord record = MechRecord(0.0);
  record.fault_timed_out = true;
  // The fault driver rewrites a timed-out IO's latency to its retry budget;
  // model that with a fat BlockServer slice.
  record.latency.component_us[static_cast<int>(StackComponent::kBlockServer)] = 30000.0;
  QueueSimulator sim(fleet, MechConfig(), 1.0, 1.0);
  sim.Arrive(record, 0);
  const QueueModelResult result = sim.Finish();
  EXPECT_EQ(result.bs[0].served, 0u);
  EXPECT_DOUBLE_EQ(result.bs[0].busy_us, 0.0);
  EXPECT_GT(result.total_us.max_us(), 30000.0);
  EXPECT_EQ(result.SloViolations(), 1u);
}

TEST(QueueSimulatorTest, FinishTwiceThrows) {
  const Fleet fleet = MechFleet();
  QueueSimulator sim(fleet, MechConfig(), 1.0, 1.0);
  sim.Arrive(MechRecord(0.0), 0);
  (void)sim.Finish();
  EXPECT_THROW(sim.Finish(), std::logic_error);
}

// --- Determinism: batch == streaming at any worker count ----------------------

SimulationConfig QueueingConfig(bool crash_heavy) {
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 24;
  config.workload.window_steps = 60;
  config.queueing.enabled = true;
  if (crash_heavy) {
    const Fleet fleet = BuildFleet(config.fleet);
    config.workload.faults = CrashHeavySchedule(fleet, config.workload.window_steps, 7);
    config.queueing.retry = config.workload.faults.retry;
  }
  return config;
}

void ExpectBatchMatchesStreaming(const SimulationConfig& config) {
  const EbsSimulation batch(config);
  ASSERT_NE(batch.queue_result(), nullptr);
  const uint64_t batch_fp = batch.queue_result()->Fingerprint();
  EXPECT_GT(batch.queue_result()->events, 0u);
  for (const size_t workers : {1u, 2u, 4u}) {
    StreamingSimulation stream(config, {.worker_threads = workers});
    stream.Run();
    ASSERT_NE(stream.queue_result(), nullptr);
    EXPECT_EQ(stream.queue_result()->Fingerprint(), batch_fp) << "workers=" << workers;
    EXPECT_EQ(stream.queue_result()->events, batch.queue_result()->events)
        << "workers=" << workers;
  }
}

TEST(QueueModelDeterminismTest, BatchMatchesStreamingHealthy) {
  ExpectBatchMatchesStreaming(QueueingConfig(/*crash_heavy=*/false));
}

TEST(QueueModelDeterminismTest, BatchMatchesStreamingUnderCrashHeavyFaults) {
  ExpectBatchMatchesStreaming(QueueingConfig(/*crash_heavy=*/true));
}

// No facade calls RunOverTraces any more (the pipeline drives the
// QueueModelSink), but the benches and the perf ledger's traced run do: hold
// it to the facade.
TEST(QueueModelDeterminismTest, RunOverTracesMatchesTheBatchFacade) {
  const SimulationConfig config = QueueingConfig(/*crash_heavy=*/true);
  const EbsSimulation batch(config);
  const double window_seconds =
      static_cast<double>(config.workload.window_steps) * config.workload.step_seconds;
  const QueueModelResult direct =
      qmodel::RunOverTraces(batch.fleet(), config.queueing, batch.traces(), window_seconds);
  ASSERT_NE(batch.queue_result(), nullptr);
  EXPECT_EQ(direct.Fingerprint(), batch.queue_result()->Fingerprint());
}

TEST(QueueModelDeterminismTest, OutOfOrderRecordsAreRejected) {
  const SimulationConfig config = QueueingConfig(/*crash_heavy=*/false);
  const EbsSimulation batch(config);
  const double window_seconds =
      static_cast<double>(config.workload.window_steps) * config.workload.step_seconds;
  TraceDataset swapped = batch.traces();
  std::vector<TraceRecord>& records = swapped.records;
  ASSERT_GT(records.size(), 2u);
  ASSERT_LT(records.front().timestamp, records.back().timestamp);
  std::swap(records.front(), records.back());
  EXPECT_THROW(qmodel::RunOverTraces(batch.fleet(), config.queueing, swapped, window_seconds),
               std::invalid_argument);
}

TEST(QueueModelDeterminismTest, DefaultModeCarriesNoQueueResult) {
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 8;
  config.workload.window_steps = 20;
  const EbsSimulation batch(config);
  EXPECT_EQ(batch.queue_result(), nullptr);
  StreamingSimulation stream(config, {.worker_threads = 2});
  stream.Run();
  EXPECT_EQ(stream.queue_result(), nullptr);
}

// --- Config validation -------------------------------------------------------

TEST(QueueModelConfigTest, NonFiniteAndOutOfRangeFieldsAreRejectedEverywhere) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Field {
    const char* name;
    double* (*member)(QueueModelConfig*);
    double out_of_range;
  };
  const Field fields[] = {
      {"wt.bytes_per_sec", [](QueueModelConfig* c) { return &c->wt.bytes_per_sec; }, -1.0},
      {"wt.per_io_us", [](QueueModelConfig* c) { return &c->wt.per_io_us; }, -4.0},
      {"wt.queue_capacity_us", [](QueueModelConfig* c) { return &c->wt.queue_capacity_us; },
       -1.0},
      {"bs.bytes_per_sec", [](QueueModelConfig* c) { return &c->bs.bytes_per_sec; }, -1e9},
      {"bs.per_io_us", [](QueueModelConfig* c) { return &c->bs.per_io_us; }, -5.0},
      {"bs.queue_capacity_us", [](QueueModelConfig* c) { return &c->bs.queue_capacity_us; },
       -50.0},
      {"load_scale", [](QueueModelConfig* c) { return &c->load_scale; }, 0.0},
      {"overflow_penalty_us", [](QueueModelConfig* c) { return &c->overflow_penalty_us; },
       -1e9},
      {"flash_read_us", [](QueueModelConfig* c) { return &c->flash_read_us; }, -18.0},
      {"slo.read_us", [](QueueModelConfig* c) { return &c->slo.read_us; }, -1.0},
      {"slo.write_us", [](QueueModelConfig* c) { return &c->slo.write_us; }, -1.0},
  };
  SimulationConfig base = DcPreset(1);
  base.fleet.user_count = 8;
  base.workload.window_steps = 30;
  base.queueing.enabled = true;
  ASSERT_EQ(ValidateSimulationConfig(base), "");
  const Fleet fleet = BuildFleet(base.fleet);
  const TraceDataset no_traces;
  for (const Field& field : fields) {
    for (const double value : {kNan, kInf, -kInf, field.out_of_range}) {
      SCOPED_TRACE(std::string(field.name) + " = " + std::to_string(value));
      SimulationConfig config = base;
      *field.member(&config.queueing) = value;
      EXPECT_NE(qmodel::ValidateQueueModelConfig(config.queueing), "");
      EXPECT_NE(ValidateSimulationConfig(config), "");
      EXPECT_THROW(EbsSimulation{config}, std::invalid_argument);
      EXPECT_THROW(StreamingSimulation{config}, std::invalid_argument);
      EXPECT_THROW(qmodel::RunOverTraces(fleet, config.queueing, no_traces, 30.0),
                   std::invalid_argument);
      // Queueing off: the sub-config is not used, so it is not checked.
      config.queueing.enabled = false;
      EXPECT_EQ(ValidateSimulationConfig(config), "");
    }
  }
  // Zero is a valid service rate (it disables the transfer cost), capacity
  // (unbounded queue), penalty, flash time and SLO.
  SimulationConfig zeros = base;
  zeros.queueing.wt = {.bytes_per_sec = 0.0, .per_io_us = 0.0, .queue_capacity_us = 0.0};
  zeros.queueing.bs = zeros.queueing.wt;
  zeros.queueing.overflow_penalty_us = 0.0;
  zeros.queueing.flash_read_us = 0.0;
  zeros.queueing.slo = {.read_us = 0.0, .write_us = 0.0};
  EXPECT_EQ(ValidateSimulationConfig(zeros), "");
}

// --- Latency products at fleet scale ------------------------------------------

TEST(QueueModelFleetTest, ResultShapesMatchTheFleet) {
  const SimulationConfig config = QueueingConfig(false);
  const EbsSimulation sim(config);
  const QueueModelResult& result = *sim.queue_result();
  EXPECT_EQ(result.tenant_us.size(), sim.fleet().users.size());
  EXPECT_EQ(result.vd.size(), sim.fleet().vds.size());
  EXPECT_EQ(result.wt.size(), sim.fleet().wts.size());
  EXPECT_EQ(result.bs.size(), sim.fleet().block_servers.size());
  EXPECT_EQ(result.events, sim.traces().records.size());
  EXPECT_EQ(result.read_us.count() + result.write_us.count(), result.events);
  uint64_t tenant_total = 0;
  for (const LatencyHist& hist : result.tenant_us) {
    tenant_total += hist.count();
  }
  EXPECT_EQ(tenant_total, result.events);
  // The window ran under real load: somebody was busy, nobody exceeded the
  // whole window, and the percentile readout is ordered.
  EXPECT_GT(result.MaxWtUtilization(), 0.0);
  EXPECT_GT(result.MaxBsUtilization(), 0.0);
  EXPECT_LE(result.total_us.Percentile(0.5), result.total_us.Percentile(0.99));
  EXPECT_LE(result.total_us.Percentile(0.99), result.total_us.Percentile(0.999));
}

TEST(QueueModelFleetTest, CrashHeavyFaultsRaiseTheTail) {
  const EbsSimulation healthy(QueueingConfig(false));
  const EbsSimulation faulty(QueueingConfig(true));
  const QueueModelResult& h = *healthy.queue_result();
  const QueueModelResult& f = *faulty.queue_result();
  // Retries, failovers and chunk-server slowdowns must show up as a latency
  // storm. At this fleet size the healthy P999 already sits at the overflow
  // shed ceiling (a handful of WT sheds dominate a 0.1% tail of a 24-user
  // run), so the P999 spike is asserted with a margin below one shed penalty;
  // the worst IO must clear the healthy worst by at least one retry penalty,
  // the P90 jumps (a sizable share of IOs pay faults during crash windows),
  // and SLO violations multiply.
  EXPECT_GT(f.total_us.Percentile(0.999), h.total_us.Percentile(0.999) + 3000.0);
  EXPECT_GT(f.total_us.max_us(), h.total_us.max_us() + 8000.0);
  EXPECT_GT(f.total_us.Percentile(0.90), 2.0 * h.total_us.Percentile(0.90));
  EXPECT_GT(f.SloViolations(), 2 * h.SloViolations());
}

}  // namespace
}  // namespace ebs
