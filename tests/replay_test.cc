// Replay engine determinism and online-sink equivalence tests.
//
// The load-bearing invariants: (1) the streaming engine's datasets are
// bit-identical to the batch facade's for the same config, for any
// worker-thread count, block boundary and abort step (the generator goldens
// in workload_test.cc pin the output itself); (2) the online mitigation sinks
// reproduce their batch counterparts exactly.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/hotspot.h"
#include "src/cache/online_hotspot.h"
#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/fault/driver.h"
#include "src/fault/schedule.h"
#include "src/hypervisor/online_balance.h"
#include "src/hypervisor/wt_balance.h"
#include "src/replay/bounded_queue.h"
#include "src/replay/engine.h"
#include "src/replay/parallel_generate.h"
#include "src/replay/sinks.h"
#include "src/throttle/online_lending.h"
#include "src/throttle/throttle.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 40;
  config.workload.window_steps = 120;
  return config;
}

void ExpectSeriesEqual(const TimeSeries& a, const TimeSeries& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t], b[t]) << what << " at step " << t;
  }
}

void ExpectRwEqual(const RwSeries& a, const RwSeries& b, const char* what) {
  ExpectSeriesEqual(a.read_bytes, b.read_bytes, what);
  ExpectSeriesEqual(a.write_bytes, b.write_bytes, what);
  ExpectSeriesEqual(a.read_ops, b.read_ops, what);
  ExpectSeriesEqual(a.write_ops, b.write_ops, what);
}

void ExpectRollupEqual(const std::vector<RwSeries>& a, const std::vector<RwSeries>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectRwEqual(a[i], b[i], what);
  }
}

TEST(BoundedQueueTest, OrderedDelivery) {
  BoundedQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Push(int(i)));
  }
  int value = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Pop(&value));
    EXPECT_EQ(value, i);
  }
}

TEST(BoundedQueueTest, CloseDrainsPendingThenFails) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_FALSE(queue.Push(8));
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 7);
  EXPECT_FALSE(queue.Pop(&value));
}

TEST(BoundedQueueTest, BackpressureAcrossThreads) {
  BoundedQueue<int> queue(2);
  constexpr int kItems = 200;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      ASSERT_TRUE(queue.Push(int(i)));
    }
    queue.Close();
  });
  int expected = 0;
  int value = -1;
  while (queue.Pop(&value)) {
    EXPECT_EQ(value, expected++);
  }
  EXPECT_EQ(expected, kItems);
  producer.join();
}

TEST(ReplayEngineTest, StreamingMatchesBatchBitIdentical) {
  const SimulationConfig config = SmallConfig();
  const EbsSimulation batch(config);
  StreamingSimulation stream(config, {.worker_threads = 4, .queue_capacity = 4});
  stream.Run();

  // Raw datasets.
  ASSERT_EQ(stream.metrics().window_steps, batch.metrics().window_steps);
  ExpectRollupEqual(stream.metrics().qp_series, batch.metrics().qp_series, "qp");
  ExpectRollupEqual(stream.workload().offered_vd, batch.workload().offered_vd, "offered");
  ASSERT_EQ(stream.metrics().segment_series.size(), batch.metrics().segment_series.size());

  // Entity rollups at every level, incremental vs batch.
  ExpectRollupEqual(stream.VdSeries(), batch.VdSeries(), "vd");
  ExpectRollupEqual(stream.VmSeries(), batch.VmSeries(), "vm");
  ExpectRollupEqual(stream.UserSeries(), batch.UserSeries(), "user");
  ExpectRollupEqual(stream.WtSeries(), batch.WtSeries(), "wt");
  ExpectRollupEqual(stream.CnSeries(), batch.CnSeries(), "cn");
  ExpectRollupEqual(stream.BsSeries(), batch.BsSeries(), "bs");
  ExpectRollupEqual(stream.SnSeries(), batch.SnSeries(), "sn");
  ExpectRollupEqual(stream.SegSeries(), batch.SegSeries(), "segment");

  // Trace stream: both facades emit the canonical (timestamp, vd, sequence)
  // order, so the datasets match record for record, order included.
  ASSERT_EQ(stream.traces().records.size(), batch.traces().records.size());
  EXPECT_EQ(stream.traces().CountOps(OpType::kRead), batch.traces().CountOps(OpType::kRead));
  EXPECT_EQ(stream.traces().CountOps(OpType::kWrite), batch.traces().CountOps(OpType::kWrite));
  EXPECT_EQ(stream.traces().SampledBytes(OpType::kRead),
            batch.traces().SampledBytes(OpType::kRead));
  EXPECT_EQ(stream.traces().SampledBytes(OpType::kWrite),
            batch.traces().SampledBytes(OpType::kWrite));
  ExpectSameRecords(stream.traces().records, batch.traces().records);
}

TEST(ReplayEngineTest, WorkerCountDoesNotChangeTheStream) {
  const SimulationConfig config = SmallConfig();

  StreamingSimulation one(config, {.worker_threads = 1, .queue_capacity = 3});
  one.Run();
  StreamingSimulation eight(config, {.worker_threads = 8, .queue_capacity = 3});
  eight.Run();

  EXPECT_EQ(one.stats().shards, 1u);
  EXPECT_EQ(eight.stats().shards, 8u);
  EXPECT_EQ(one.stats().events, eight.stats().events);

  // The merged event stream is identical record for record — order included.
  ExpectSameRecords(one.traces().records, eight.traces().records);

  ExpectRollupEqual(one.metrics().qp_series, eight.metrics().qp_series, "qp");
  ExpectRollupEqual(one.VdSeries(), eight.VdSeries(), "vd");
  ExpectRollupEqual(one.WtSeries(), eight.WtSeries(), "wt");
  ExpectRollupEqual(one.SnSeries(), eight.SnSeries(), "sn");
}

TEST(ParallelGenerateTest, WorkerCountInvariantAndMatchesBatch) {
  const SimulationConfig config = SmallConfig();
  const Fleet fleet = BuildFleet(config.fleet);

  const WorkloadResult one = GenerateWorkloadParallel(fleet, config.workload, 1);
  const WorkloadResult four = GenerateWorkloadParallel(fleet, config.workload, 4);

  // Record for record — order included: the merge emits the canonical
  // (timestamp, vd, sequence) stream regardless of the VM partition.
  ExpectSameRecords(one.traces.records, four.traces.records);
  ExpectRollupEqual(one.metrics.qp_series, four.metrics.qp_series, "qp");
  ExpectRollupEqual(one.offered_vd, four.offered_vd, "offered");

  // Against the single-thread batch generator: bit-identical metric datasets
  // and the same trace stream, record for record — its stable sort produces
  // the merged order.
  const WorkloadResult batch = WorkloadGenerator(fleet, config.workload).Generate();
  ExpectRollupEqual(batch.metrics.qp_series, four.metrics.qp_series, "qp vs batch");
  ExpectRollupEqual(batch.offered_vd, four.offered_vd, "offered vs batch");
  ASSERT_EQ(batch.metrics.segment_series.size(), four.metrics.segment_series.size());
  ASSERT_EQ(batch.traces.records.size(), four.traces.records.size());
  EXPECT_EQ(batch.traces.SampledBytes(OpType::kRead), four.traces.SampledBytes(OpType::kRead));
  EXPECT_EQ(batch.traces.SampledBytes(OpType::kWrite),
            four.traces.SampledBytes(OpType::kWrite));
  ExpectSameRecords(batch.traces.records, four.traces.records);
}

TEST(ReplayEngineTest, OnlineSinksMatchBatchCounterparts) {
  SimulationConfig config = SmallConfig();
  const EbsSimulation batch(config);

  // Batch references.
  ThrottleConfig throttle_config;
  throttle_config.cap_scale = 0.25;  // tight caps so lending has work to do
  const std::vector<SharingGroup> groups = MultiVdVmGroups(batch.fleet());
  const std::vector<double> batch_gains =
      SimulateLending(batch.fleet(), batch.workload().offered_vd, groups, throttle_config);
  const std::vector<double> batch_cov =
      WtCovSamples(batch.fleet(), batch.metrics(), OpType::kWrite, 30);

  // Online pipeline: throttler + balancer observer + per-VD caches, one pass.
  StreamingSimulation stream(config, {.worker_threads = 4});
  OnlineLendingSink lending(MultiVdVmGroups(stream.fleet()), throttle_config);
  OnlineWtCovSink balance(OpType::kWrite, 30);
  OnlineCacheSink caches(CachePolicy::kLru, 16 * kMiB);
  stream.AddSink(&lending);
  stream.AddSink(&balance);
  stream.AddSink(&caches);
  stream.Run();

  // Lending gains: exact, order included.
  ASSERT_EQ(lending.gains().size(), batch_gains.size());
  EXPECT_GT(batch_gains.size(), 0u);
  for (size_t i = 0; i < batch_gains.size(); ++i) {
    EXPECT_EQ(lending.gains()[i], batch_gains[i]) << i;
  }

  // WT-CoV samples: exact, order included.
  ASSERT_EQ(balance.samples().size(), batch_cov.size());
  EXPECT_GT(batch_cov.size(), 0u);
  for (size_t i = 0; i < batch_cov.size(); ++i) {
    EXPECT_EQ(balance.samples()[i], batch_cov[i]) << i;
  }

  // Per-VD cache replay: equal to the offline replay of the collected trace.
  const VdTraceIndex index(batch.fleet(), batch.traces());
  const std::vector<VdId> active = index.ActiveVds(1);
  EXPECT_GT(active.size(), 0u);
  for (const VdId vd : active) {
    const CacheReplayResult offline = ReplayVdCache(index.ForVd(vd), /*capacity_bytes=*/0,
                                                    16 * kMiB, CachePolicy::kLru);
    const CacheReplayResult online = caches.ResultFor(vd);
    EXPECT_EQ(online.page_accesses, offline.page_accesses) << vd.value();
    EXPECT_EQ(online.hit_ratio, offline.hit_ratio) << vd.value();
  }
}

// A sink recording the engine's lifecycle to validate the observer contract.
class LifecycleProbe : public ReplaySink {
 public:
  void OnStart(const Fleet& /*fleet*/, size_t window_steps, double /*step_seconds*/) override {
    ++starts;
    expected_steps = window_steps;
  }
  void OnEvent(const ReplayEvent& event) override {
    ++events;
    if (has_previous) {
      ordered = ordered && !ReplayEventBefore(event, previous);
    }
    previous = event;
    has_previous = true;
    EXPECT_EQ(event.step, steps_completed) << "event outside its step";
  }
  void OnStepComplete(const ReplayStepView& view) override {
    EXPECT_EQ(view.step, steps_completed);
    ++steps_completed;
  }
  void OnFinish() override { ++finishes; }

  int starts = 0;
  int finishes = 0;
  size_t expected_steps = 0;
  size_t steps_completed = 0;
  uint64_t events = 0;
  bool ordered = true;
  bool has_previous = false;
  ReplayEvent previous;
};

TEST(ReplayEngineTest, SinkLifecycleAndStreamOrder) {
  SimulationConfig config = SmallConfig();
  config.fleet.user_count = 20;
  config.workload.window_steps = 60;
  const Fleet fleet = BuildFleet(config.fleet);

  ReplayEngine engine(fleet, config.workload, {.worker_threads = 3, .queue_capacity = 2});
  LifecycleProbe probe;
  ThroughputProbeSink counter;
  engine.AddSink(&probe);
  engine.AddSink(&counter);
  const WorkloadResult result = engine.Run();

  EXPECT_EQ(probe.starts, 1);
  EXPECT_EQ(probe.finishes, 1);
  EXPECT_EQ(probe.steps_completed, probe.expected_steps);
  EXPECT_TRUE(probe.ordered) << "merged stream not in ReplayEventBefore order";
  EXPECT_EQ(probe.events, engine.stats().events);
  EXPECT_EQ(counter.events(), engine.stats().events);
  EXPECT_EQ(counter.read_ops() + counter.write_ops(), counter.events());
  // Run() leaves the trace dataset empty by design.
  EXPECT_TRUE(result.traces.records.empty());
  EXPECT_EQ(result.metrics.qp_series.size(), fleet.qps.size());
}

// The rollup sink folds every level once, at its final step boundary; the
// result must equal the batch facade's rollups at any worker count.
TEST(ReplayEngineTest, RollupSinkMatchesBatchRollups) {
  const SimulationConfig config = SmallConfig();
  const EbsSimulation batch(config);
  for (const size_t workers : {1u, 3u}) {
    ReplayEngine engine(batch.fleet(), config.workload, {.worker_threads = workers});
    RollupAggregatorSink rollups;
    engine.AddSink(&rollups);
    engine.Run();
    const StreamingAggregator& agg = rollups.aggregator();
    ExpectRollupEqual(agg.vd(), batch.VdSeries(), "vd");
    ExpectRollupEqual(agg.vm(), batch.VmSeries(), "vm");
    ExpectRollupEqual(agg.user(), batch.UserSeries(), "user");
    ExpectRollupEqual(agg.wt(), batch.WtSeries(), "wt");
    ExpectRollupEqual(agg.cn(), batch.CnSeries(), "cn");
    ExpectRollupEqual(agg.bs(), batch.BsSeries(), "bs");
    ExpectRollupEqual(agg.sn(), batch.SnSeries(), "sn");
  }
}

TEST(StreamingSimulationTest, GuardsAgainstMisuse) {
  SimulationConfig config = SmallConfig();
  config.fleet.user_count = 4;
  config.workload.window_steps = 10;
  StreamingSimulation sim(config);
  EXPECT_THROW(sim.traces(), std::logic_error);
  EXPECT_THROW(sim.VdSeries(), std::logic_error);
  sim.Run();
  EXPECT_THROW(sim.Run(), std::logic_error);
  ThroughputProbeSink sink;
  EXPECT_THROW(sim.AddSink(&sink), std::logic_error);
  EXPECT_EQ(sim.VdSeries().size(), sim.fleet().vds.size());
}

// The batch facade is the streaming one, run in its constructor: the run has
// happened, so nothing can join it, and the engine's stats and fault driver
// are the facade's.
TEST(SimulationTest, BatchFacadeHasRunWhenConstructed) {
  SimulationConfig config = SmallConfig();
  config.fleet.user_count = 4;
  config.workload.window_steps = 30;
  EbsSimulation healthy(config);
  ThroughputProbeSink sink;
  EXPECT_THROW(healthy.AddSink(&sink), std::logic_error);
  EXPECT_THROW(healthy.Run(), std::logic_error);
  EXPECT_GT(healthy.traces().records.size(), 0u);
  EXPECT_EQ(healthy.stats().events, healthy.traces().records.size());
  EXPECT_EQ(healthy.fault_driver(), nullptr);

  config.workload.faults =
      CrashHeavySchedule(BuildFleet(config.fleet), config.workload.window_steps, /*seed=*/7);
  const EbsSimulation faulty(config);
  EXPECT_NE(faulty.fault_driver(), nullptr);
  EXPECT_EQ(faulty.stats().events, faulty.traces().records.size());
}

TEST(ReplayEngineTest, FinishedRunKeepsItsStreamCountAndFaultDriver) {
  // Finalize frees the generator shards once their fault stats are summed.
  // What a caller reads after Run() stays put: the stream count, the fault
  // driver and the fault accounting drawn from both.
  SimulationConfig config = SmallConfig();
  config.fleet.user_count = 4;
  config.workload.window_steps = 30;
  const Fleet fleet = BuildFleet(config.fleet);
  config.workload.faults =
      CrashHeavySchedule(fleet, config.workload.window_steps, /*seed=*/7);
  ReplayEngine engine(fleet, config.workload, {.worker_threads = 3});
  const FaultDriver* driver = engine.fault_driver();
  ASSERT_NE(driver, nullptr);
  const WorkloadResult result = engine.Run();
  EXPECT_EQ(engine.stats().shards, 3u);
  EXPECT_EQ(engine.fault_driver(), driver);
  EXPECT_EQ(result.faults.degraded_steps, driver->DegradedStepCount());
  EXPECT_GT(result.faults.issued, 0u);
  const FaultStats serial = GenerateWorkloadParallel(fleet, config.workload, 1).faults;
  EXPECT_EQ(result.faults.issued, serial.issued);
  EXPECT_EQ(result.faults.completed, serial.completed);
  EXPECT_EQ(result.faults.retries, serial.retries);
  EXPECT_EQ(result.faults.failovers, serial.failovers);
}

// Hammers every lazy rollup accessor of `sim` from many threads; under
// EBS_SANITIZE=thread this is the regression test for the shared RollupCache.
template <typename Sim>
void HammerRollupAccessors(const Sim& sim) {
  const auto sizes = [&sim] {
    return sim.VdSeries().size() + sim.VmSeries().size() + sim.UserSeries().size() +
           sim.WtSeries().size() + sim.CnSeries().size() + sim.BsSeries().size() +
           sim.SnSeries().size() + sim.SegSeries().size();
  };
  std::atomic<size_t> total{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] { total += sizes(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(total.load(), sizes() * 8);
}

TEST(SimulationTest, RollupCachesAreThreadSafe) {
  SimulationConfig config = SmallConfig();
  config.fleet.user_count = 10;
  config.workload.window_steps = 30;
  HammerRollupAccessors(EbsSimulation(config));
  StreamingSimulation stream(config, {.worker_threads = 2});
  stream.Run();
  HammerRollupAccessors(stream);
}

// --- Block stepping: partial blocks and mid-block aborts ---------------------

// Keeps every merged event and every step boundary the engine delivers.
class StreamProbe : public ReplaySink {
 public:
  void OnEvent(const ReplayEvent& event) override { events.push_back(event); }
  void OnStepComplete(const ReplayStepView& view) override { steps.push_back(view.step); }

  std::vector<ReplayEvent> events;
  std::vector<size_t> steps;
};

// Every field of an event except the diagnostic shard index, which depends on
// the worker count.
auto EventFields(const ReplayEvent& event) {
  return std::make_tuple(RecordFields(event.record), event.step, event.sequence);
}

void ExpectSameEvents(const std::vector<ReplayEvent>& a, const std::vector<ReplayEvent>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(EventFields(a[i]), EventFields(b[i])) << what << ", event " << i;
  }
}

SimulationConfig BlockTestConfig(size_t window_steps) {
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 16;
  config.workload.window_steps = window_steps;
  return config;
}

// Windows that are not a whole number of blocks: the last block is partial,
// and every step still reaches the sinks once, in order, with the same events
// at every worker count and queue bound.
TEST(ReplayBlockTest, PartialLastBlockDeliversEveryStep) {
  for (const size_t window : {70u, 601u}) {
    const SimulationConfig config = BlockTestConfig(window);
    const Fleet fleet = BuildFleet(config.fleet);
    std::vector<size_t> all_steps(window);
    for (size_t t = 0; t < window; ++t) {
      all_steps[t] = t;
    }
    std::vector<ReplayEvent> reference;
    for (const size_t workers : {1u, 2u, 4u}) {
      for (const size_t capacity : {2u, 3u}) {
        const std::string what = std::to_string(window) + " steps, " +
                                 std::to_string(workers) + " workers, capacity " +
                                 std::to_string(capacity);
        ReplayEngine engine(fleet, config.workload,
                            {.worker_threads = workers, .queue_capacity = capacity});
        StreamProbe probe;
        engine.AddSink(&probe);
        engine.Run();
        EXPECT_EQ(probe.steps, all_steps) << what;
        ASSERT_FALSE(probe.events.empty()) << what;
        EXPECT_EQ(probe.events.back().step, window - 1) << what;
        for (const ReplayEvent& event : probe.events) {
          ASSERT_EQ(event.step, static_cast<size_t>(event.record.timestamp)) << what;
        }
        if (reference.empty()) {
          reference = probe.events;
        } else {
          ExpectSameEvents(probe.events, reference, what);
        }
      }
    }
  }
}

// An unrecoverable fault at a step inside a block: the sinks see every step
// before it, with exactly the events of the same run without the fatal
// event, and the run then throws. A later abort step puts several full
// blocks through the bounded queues first, so the shards block on a full
// queue before they abort.
TEST(ReplayBlockTest, AbortInsideABlockDeliversEveryEarlierStep) {
  SimulationConfig config = BlockTestConfig(601);
  const Fleet fleet = BuildFleet(config.fleet);
  config.workload.faults = CrashHeavySchedule(fleet, config.workload.window_steps, 5);

  ReplayEngine healthy_engine(fleet, config.workload, {.worker_threads = 2});
  StreamProbe healthy;
  healthy_engine.AddSink(&healthy);
  healthy_engine.Run();

  for (const size_t abort_step : {35u, 330u}) {
    SimulationConfig fatal_config = config;
    FaultEvent fatal;
    fatal.type = FaultType::kUnrecoverable;
    fatal.start_step = abort_step;
    fatal.end_step = abort_step;
    fatal_config.workload.faults.events.push_back(fatal);

    std::vector<ReplayEvent> before_abort;
    for (const ReplayEvent& event : healthy.events) {
      if (event.step < abort_step) {
        before_abort.push_back(event);
      }
    }
    for (const size_t workers : {1u, 2u, 4u}) {
      for (const size_t capacity : {2u, 3u}) {
        const std::string what = "abort at " + std::to_string(abort_step) + ", " +
                                 std::to_string(workers) + " workers, capacity " +
                                 std::to_string(capacity);
        ReplayEngine engine(fleet, fatal_config.workload,
                            {.worker_threads = workers, .queue_capacity = capacity});
        StreamProbe probe;
        engine.AddSink(&probe);
        try {
          engine.Run();
          ADD_FAILURE() << what << ": the run did not abort";
        } catch (const UnrecoverableFaultError& error) {
          EXPECT_EQ(error.step(), abort_step) << what;
        }
        ASSERT_FALSE(probe.steps.empty()) << what;
        EXPECT_EQ(probe.steps.back(), abort_step - 1) << what;
        EXPECT_EQ(probe.steps.size(), abort_step) << what;
        ExpectSameEvents(probe.events, before_abort, what);
      }
    }
  }
}

}  // namespace
}  // namespace ebs
