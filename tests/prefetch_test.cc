// Tests for the §2.2 read-prefetching cache and the component-latency
// analysis.

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/analysis/latency.h"
#include "src/cache/prefetch.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

constexpr uint32_t kIo = 512 * 1024;  // a large sequential read

TEST(PrefetchTest, SequentialRunTriggersReadahead) {
  PrefetchCache cache;
  // Three sequential large reads arm the prefetcher...
  EXPECT_FALSE(cache.AccessRead(SegmentId(0), 0 * kIo, kIo));
  EXPECT_FALSE(cache.AccessRead(SegmentId(0), 1 * kIo, kIo));
  EXPECT_FALSE(cache.AccessRead(SegmentId(0), 2 * kIo, kIo));
  EXPECT_EQ(cache.prefetch_issued(), 1u);
  // ...and the next reads in the run are served from the readahead.
  EXPECT_TRUE(cache.AccessRead(SegmentId(0), 3 * kIo, kIo));
  EXPECT_TRUE(cache.AccessRead(SegmentId(0), 4 * kIo, kIo));
}

TEST(PrefetchTest, RandomReadsNeverTrigger) {
  PrefetchCache cache;
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_FALSE(cache.AccessRead(SegmentId(0), (i * 7919) % 1000 * kIo, kIo));
  }
  EXPECT_EQ(cache.prefetch_issued(), 0u);
}

TEST(PrefetchTest, SmallReadsDoNotCountTowardRuns) {
  PrefetchCache cache;
  for (uint64_t i = 0; i < 10; ++i) {
    cache.AccessRead(SegmentId(0), i * 4096, 4096);
  }
  EXPECT_EQ(cache.prefetch_issued(), 0u);
}

TEST(PrefetchTest, RunsAreTrackedPerSegment) {
  PrefetchCache cache;
  // Interleaved sequential runs on two segments both trigger.
  for (uint64_t i = 0; i < 4; ++i) {
    cache.AccessRead(SegmentId(0), i * kIo, kIo);
    cache.AccessRead(SegmentId(1), i * kIo, kIo);
  }
  EXPECT_EQ(cache.prefetch_issued(), 2u);
  // Segment 1's readahead does not serve segment 2.
  EXPECT_FALSE(cache.AccessRead(SegmentId(2), 4 * kIo, kIo));
}

TEST(PrefetchTest, WritesInvalidateOverlappingReadahead) {
  PrefetchCache cache;
  for (uint64_t i = 0; i < 3; ++i) {
    cache.AccessRead(SegmentId(0), i * kIo, kIo);
  }
  ASSERT_TRUE(cache.AccessRead(SegmentId(0), 3 * kIo, kIo));
  cache.AccessWrite(SegmentId(0), 4 * kIo, kIo);  // overwrites part of the window
  EXPECT_FALSE(cache.AccessRead(SegmentId(0), 4 * kIo, kIo));
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(PrefetchTest, CapacityEvictsOldestRanges) {
  PrefetchConfig config;
  config.readahead_bytes = 8ULL * 1024 * 1024;
  config.capacity_bytes = 8ULL * 1024 * 1024;  // room for exactly one window
  PrefetchCache cache(config);
  for (uint64_t i = 0; i < 3; ++i) {
    cache.AccessRead(SegmentId(0), i * kIo, kIo);
  }
  ASSERT_TRUE(cache.AccessRead(SegmentId(0), 3 * kIo, kIo));
  // A second run on another segment evicts the first window.
  for (uint64_t i = 0; i < 3; ++i) {
    cache.AccessRead(SegmentId(1), i * kIo, kIo);
  }
  EXPECT_LE(cache.resident_bytes(), config.capacity_bytes);
  EXPECT_FALSE(cache.AccessRead(SegmentId(0), 4 * kIo, kIo));
}

TEST(PrefetchTest, RejectsConfigsItCannotRun) {
  // Each of these used to run: a zero min_run_ios issued a readahead for
  // every read, small and random ones included; a zero readahead counted
  // prefetches that held no byte; a capacity below one readahead evicted each
  // window as it landed, so nothing was ever served.
  const auto make = [](PrefetchConfig config) { return PrefetchCache(config); };
  PrefetchConfig zero_run;
  zero_run.min_run_ios = 0;
  EXPECT_THROW(make(zero_run), std::invalid_argument);
  PrefetchConfig zero_readahead;
  zero_readahead.readahead_bytes = 0;
  EXPECT_THROW(make(zero_readahead), std::invalid_argument);
  PrefetchConfig small;
  small.capacity_bytes = 1024 * 1024;  // below the default 8 MiB readahead
  EXPECT_THROW(make(small), std::invalid_argument);
  small.capacity_bytes = small.readahead_bytes - 1;
  EXPECT_THROW(make(small), std::invalid_argument);

  // The edges run: one sequential read per run, and a capacity of exactly one
  // readahead window (CapacityEvictsOldestRanges drives that one).
  PrefetchConfig edge;
  edge.min_run_ios = 1;
  edge.capacity_bytes = edge.readahead_bytes;
  PrefetchCache cache = make(edge);
  EXPECT_FALSE(cache.AccessRead(SegmentId(0), 0, kIo));
  EXPECT_EQ(cache.prefetch_issued(), 1u);
  EXPECT_TRUE(cache.AccessRead(SegmentId(0), kIo, kIo));
  EXPECT_EQ(cache.resident_bytes(), edge.readahead_bytes);
}

TEST(LatencyAnalysisTest, SharesSumToOnePerOp) {
  TraceDataset traces;
  traces.window_seconds = 1.0;
  for (int i = 0; i < 50; ++i) {
    TraceRecord r;
    r.op = i % 2 == 0 ? OpType::kRead : OpType::kWrite;
    for (int c = 0; c < kStackComponentCount; ++c) {
      r.latency.component_us[c] = 10.0 * (c + 1);
    }
    traces.records.push_back(r);
  }
  const auto stats = AnalyzeComponentLatency(traces);
  for (int op = 0; op < kOpTypeCount; ++op) {
    EXPECT_EQ(stats.samples[op], 25u);
    double total = 0.0;
    for (int c = 0; c < kStackComponentCount; ++c) {
      total += stats.mean_share[op][c];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(stats.p50_us[op], 150.0);
  }
  // The ChunkServer slice (component 5) dominates by construction.
  EXPECT_GT(stats.mean_share[0][kStackComponentCount - 1], stats.mean_share[0][0]);
}

TEST(LatencyAnalysisTest, EmptyDataset) {
  const auto stats = AnalyzeComponentLatency(TraceDataset{});
  EXPECT_EQ(stats.samples[0], 0u);
  EXPECT_DOUBLE_EQ(stats.p50_us[0], 0.0);
}

}  // namespace
}  // namespace ebs
