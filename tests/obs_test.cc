// Tests for the src/obs observability layer: registry semantics, the
// disabled-is-free contract, timer/histogram behavior, RunReport rendering,
// and the load-bearing invariant that instrumentation does not perturb the
// simulation output (streaming-vs-batch fingerprint with the global registry
// enabled).

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

using obs::MetricRegistry;
using obs::RunReport;
using obs::ScopedTimer;

TEST(ObsCounterTest, AccumulatesAcrossThreads) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::Counter* counter = registry.GetCounter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([counter] {
      for (int j = 0; j < kPerThread; ++j) {
        counter->Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistryTest, DisabledRegistryRecordsNothing) {
  MetricRegistry registry;
  ASSERT_FALSE(registry.enabled());
  obs::Counter* counter = registry.GetCounter("test.counter");
  obs::Gauge* gauge = registry.GetGauge("test.gauge");
  obs::ObsHistogram* hist = registry.GetTimer("test.timer");
  counter->Add(42);
  gauge->Set(3.5);
  hist->Record(1000);
  { ScopedTimer timer(hist); }
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(hist->count(), 0u);
}

TEST(ObsRegistryTest, ReturnsStablePointersPerName) {
  MetricRegistry registry;
  obs::Counter* a = registry.GetCounter("same.name");
  obs::Counter* b = registry.GetCounter("same.name");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("other.name"), a);
  EXPECT_EQ(registry.GetTimer("t"), registry.GetHistogram("t", "ns"));
}

// Registration from many threads at once: the registry resolves one metric
// per name, so no thread's increments land in an orphaned counter.
TEST(ObsRegistryTest, ConcurrentGetCounterResolvesOneCounterPerName) {
  MetricRegistry registry;
  registry.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kNames = 64;
  constexpr int kIncrementsPerThread = 16 * kNames;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int rep = 0; rep < kIncrementsPerThread; ++rep) {
        registry.GetCounter("metric." + std::to_string(rep % kNames))->Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const RunReport report = registry.Snapshot();
  ASSERT_EQ(report.metrics.size(), static_cast<size_t>(kNames));
  double total = 0.0;
  for (const obs::MetricSnapshot& metric : report.metrics) {
    EXPECT_EQ(metric.kind, "counter");
    EXPECT_EQ(metric.value, static_cast<double>(kThreads * 16)) << metric.name;
    total += metric.value;
  }
  EXPECT_EQ(total, static_cast<double>(kThreads * kIncrementsPerThread));
}

TEST(ObsRegistryTest, ConcurrentDisjointRegistrationsAllAppearInSnapshot) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kNamesPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kNamesPerThread; ++i) {
        std::string name = "t";
        name += std::to_string(t);
        name += ".k";
        name += std::to_string(i);
        if (i % 2 == 0) {
          registry.GetGauge(name);
        } else {
          registry.GetTimer(name);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const RunReport report = registry.Snapshot();
  ASSERT_EQ(report.metrics.size(), static_cast<size_t>(kThreads * kNamesPerThread));
  for (size_t i = 1; i < report.metrics.size(); ++i) {
    EXPECT_LT(report.metrics[i - 1].name, report.metrics[i].name);
  }
}

// A pointer taken before other threads register more names is the one a
// later lookup returns: growing the maps never moves a metric.
TEST(ObsRegistryTest, PointerStaysStableWhileOtherThreadsRegister) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::Counter* stable = registry.GetCounter("stable");
  stable->Add(42);
  std::thread writer([&registry] {
    for (int i = 0; i < 20000; ++i) {
      registry.GetCounter("churn." + std::to_string(i));
    }
  });
  std::thread reader([&registry, stable] {
    for (int i = 0; i < 20000; ++i) {
      EXPECT_EQ(registry.GetCounter("stable"), stable);
      EXPECT_EQ(stable->Value(), 42u);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(registry.GetCounter("stable"), stable);
}

TEST(ObsHistogramTest, TracksCountSumMaxAndBuckets) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::ObsHistogram* hist = registry.GetHistogram("test.hist");
  for (const uint64_t v : {1000u, 2000u, 4000u, 8000u}) {
    hist->Record(v);
  }
  EXPECT_EQ(hist->count(), 4u);
  EXPECT_EQ(hist->sum(), 15000u);
  EXPECT_EQ(hist->max(), 8000u);
  EXPECT_DOUBLE_EQ(hist->Mean(), 3750.0);
  // Percentiles are bucket-approximate: p0..p100 must stay within the
  // recorded range's bucket bounds and be monotone.
  const double p50 = hist->Percentile(0.50);
  const double p99 = hist->Percentile(0.99);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p99, 8000.0);
  EXPECT_LE(p50, p99);
}

TEST(ObsHistogramTest, InterpolatedPercentilesOnAKnownUniformBucket) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::ObsHistogram* hist = registry.GetHistogram("test.uniform");
  // 512 uniform samples filling exactly the [512, 1024) bucket: within-bucket
  // interpolation must read the quantiles back to ~1%, where the bucket
  // midpoint alone would be off by up to ~33%.
  for (uint64_t v = 512; v < 1024; ++v) {
    hist->Record(v);
  }
  EXPECT_NEAR(hist->Percentile(0.50), 767.5, 8.0);
  EXPECT_NEAR(hist->Percentile(0.90), 972.1, 10.0);
  EXPECT_NEAR(hist->Percentile(0.99), 1017.9, 10.0);
  EXPECT_LE(hist->Percentile(0.999), 1023.0);  // capped by the observed max
}

TEST(ObsHistogramTest, PercentileIsCappedByTheObservedMax) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::ObsHistogram* hist = registry.GetHistogram("test.capped");
  hist->Record(1000);  // sole sample in [512, 1024); interpolation would say 1024
  EXPECT_DOUBLE_EQ(hist->Percentile(0.99), 1000.0);
  EXPECT_DOUBLE_EQ(hist->Percentile(0.5), 1000.0);
}

TEST(ObsHistogramTest, PercentilesAreMonotoneAcrossSparseBuckets) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::ObsHistogram* hist = registry.GetHistogram("test.sparse");
  for (const uint64_t v : {3u, 70u, 70u, 5000u, 1000000u}) {
    hist->Record(v);
  }
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double p = hist->Percentile(q);
    EXPECT_GE(p, prev) << q;
    EXPECT_LE(p, 1000000.0) << q;
    prev = p;
  }
}

TEST(ObsHistogramTest, SnapshotCarriesP999) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::ObsHistogram* hist = registry.GetHistogram("test.p999", "us");
  for (uint64_t v = 0; v < 2000; ++v) {
    hist->Record(v < 1998 ? 100u : 100000u);  // 0.1% tail at 100ms
  }
  const RunReport report = registry.Snapshot();
  ASSERT_EQ(report.metrics.size(), 1u);
  EXPECT_GT(report.metrics[0].p999, report.metrics[0].p99);
  EXPECT_GE(report.metrics[0].p999, 65536.0);  // the tail bucket, not the body
  const std::string json = obs::RunReportJson(report);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(ObsHistogramTest, ZeroValueLandsInBucketZero) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::ObsHistogram* hist = registry.GetHistogram("test.zero");
  hist->Record(0);
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_EQ(hist->max(), 0u);
  EXPECT_EQ(hist->Percentile(0.5), 0.0);
}

TEST(ObsTimerTest, RecordsExactlyOnce) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::ObsHistogram* hist = registry.GetTimer("test.timer");
  {
    ScopedTimer timer(hist);
    timer.Stop();
    timer.Stop();  // idempotent
  }
  EXPECT_EQ(hist->count(), 1u);
  ScopedTimer null_timer(nullptr);  // null-safe
}

TEST(ObsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricRegistry registry;
  registry.set_enabled(true);
  obs::Counter* counter = registry.GetCounter("test.counter");
  obs::ObsHistogram* hist = registry.GetHistogram("test.hist");
  counter->Add(5);
  hist->Record(100);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(hist->count(), 0u);
  EXPECT_EQ(registry.GetCounter("test.counter"), counter);
}

TEST(ObsReportTest, SnapshotIsSortedAndTyped) {
  MetricRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("b.counter")->Add(7);
  registry.GetGauge("a.gauge")->Set(1.5);
  registry.GetTimer("c.timer")->Record(1000);
  const RunReport report = registry.Snapshot();
  ASSERT_EQ(report.metrics.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      report.metrics.begin(), report.metrics.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
  EXPECT_EQ(report.metrics[0].name, "a.gauge");
  EXPECT_EQ(report.metrics[0].kind, "gauge");
  EXPECT_EQ(report.metrics[0].value, 1.5);
  EXPECT_EQ(report.metrics[1].kind, "counter");
  EXPECT_EQ(report.metrics[1].value, 7.0);
  EXPECT_EQ(report.metrics[2].kind, "histogram");
  EXPECT_EQ(report.metrics[2].unit, "ns");
  EXPECT_EQ(report.metrics[2].count, 1u);
}

TEST(ObsReportTest, JsonAndTableRenderEveryMetric) {
  MetricRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("replay.events")->Add(3);
  registry.GetTimer("replay.generate")->Record(2048);
  const RunReport report = registry.Snapshot();

  const std::string json = obs::RunReportJson(report);
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"replay.events\",\"kind\":\"counter\",\"value\":3"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"replay.generate\",\"kind\":\"histogram\""),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);

  std::ostringstream table;
  obs::PrintRunReport(report, table);
  EXPECT_NE(table.str().find("replay.events"), std::string::npos);
  EXPECT_NE(table.str().find("replay.generate"), std::string::npos);
}

TEST(ObsReportTest, WriteJsonRoundTripsToDisk) {
  MetricRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("x")->Add(1);
  const std::string path = std::string(::testing::TempDir()) + "/obs_report.json";
  ASSERT_TRUE(obs::WriteRunReportJson(registry.Snapshot(), path));
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char buf[256] = {};
  const size_t read = std::fread(buf, 1, sizeof(buf) - 1, file);
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_GT(read, 0u);
  EXPECT_EQ(std::string(buf).rfind("{\"metrics\":[", 0), 0u);
}

TEST(ObsReportTest, WriteJsonFailsOnUnwritablePath) {
  MetricRegistry registry;
  EXPECT_FALSE(obs::WriteRunReportJson(registry.Snapshot(), "/nonexistent-dir/report.json"));
}

TEST(ObsReportTest, WriteJsonFailsWhenDeviceIsFull) {
  // /dev/full accepts the open and every buffered write, then fails the
  // flush with ENOSPC — exactly the silent-failure class the checked close
  // exists for.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full not available";
  }
  std::fclose(probe);
  MetricRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("x")->Add(1);
  EXPECT_FALSE(obs::WriteRunReportJson(registry.Snapshot(), "/dev/full"));
}

// The tentpole invariant: turning the instrumentation on must not change a
// single bit of the simulation output. Runs the streaming engine (which
// exercises every replay/core/sink metric) against the batch generator with
// the GLOBAL registry enabled and compares the datasets exactly.
TEST(ObsFingerprintTest, InstrumentationDoesNotPerturbSimulationOutput) {
  MetricRegistry& global = MetricRegistry::Global();
  const bool was_enabled = global.enabled();
  global.set_enabled(true);

  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 30;
  config.workload.window_steps = 90;

  const EbsSimulation batch(config);
  // The batch facade generates through the replay engine too; count only the
  // streaming run below.
  global.Reset();
  StreamingSimulation stream(config, {.worker_threads = 4, .queue_capacity = 4});
  stream.Run();

  ExpectSameRecords(stream.traces().records, batch.traces().records);

  ASSERT_EQ(stream.metrics().qp_series.size(), batch.metrics().qp_series.size());
  for (size_t q = 0; q < batch.metrics().qp_series.size(); ++q) {
    for (size_t t = 0; t < batch.metrics().window_steps; ++t) {
      ASSERT_EQ(stream.metrics().qp_series[q].read_bytes[t],
                batch.metrics().qp_series[q].read_bytes[t]);
      ASSERT_EQ(stream.metrics().qp_series[q].write_bytes[t],
                batch.metrics().qp_series[q].write_bytes[t]);
    }
  }

  // And the instrumentation did observe the run: per-shard generation
  // timers, queue waits and the merged-event counter are all live.
  const RunReport report = global.Snapshot();
  auto find = [&report](const std::string& name) -> const obs::MetricSnapshot* {
    for (const auto& metric : report.metrics) {
      if (metric.name == name) {
        return &metric;
      }
    }
    return nullptr;
  };
  const obs::MetricSnapshot* generate = find("replay.shard0.generate_block");
  ASSERT_NE(generate, nullptr);
  EXPECT_EQ(generate->count, (90u + kReplayBlockSteps - 1) / kReplayBlockSteps);
  const obs::MetricSnapshot* push_wait = find("replay.queue.push_wait");
  ASSERT_NE(push_wait, nullptr);
  EXPECT_GT(push_wait->count, 0u);
  const obs::MetricSnapshot* occupancy = find("replay.queue.occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_GT(occupancy->count, 0u);
  const obs::MetricSnapshot* merged = find("replay.events_merged");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(merged->value), stream.stats().events);

  global.set_enabled(was_enabled);
  global.Reset();
}

}  // namespace
}  // namespace ebs
