// Tests for the page-cache policies (including a hit-for-hit differential
// check against the node-based reference in tests/cache_reference.h),
// hottest-block analysis, the online cache sink's deferred replay and the
// cache-location study.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/hotspot.h"
#include "src/cache/location.h"
#include "src/cache/online_hotspot.h"
#include "src/cache/policy.h"
#include "src/util/distributions.h"
#include "tests/cache_reference.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

TEST(FifoTest, EvictsInInsertionOrder) {
  auto cache = MakeCache(CachePolicy::kFifo, 2);
  EXPECT_FALSE(cache->Access(1));
  EXPECT_FALSE(cache->Access(2));
  EXPECT_TRUE(cache->Access(1));   // hit does not reorder FIFO
  EXPECT_FALSE(cache->Access(3));  // evicts 1 (oldest)
  EXPECT_FALSE(cache->Access(1));
  EXPECT_TRUE(cache->Access(3));
}

TEST(LruTest, HitRefreshesRecency) {
  auto cache = MakeCache(CachePolicy::kLru, 2);
  EXPECT_FALSE(cache->Access(1));
  EXPECT_FALSE(cache->Access(2));
  EXPECT_TRUE(cache->Access(1));   // 1 becomes most recent
  EXPECT_FALSE(cache->Access(3));  // evicts 2
  EXPECT_TRUE(cache->Access(1));
  EXPECT_FALSE(cache->Access(2));
}

TEST(LfuTest, EvictsLeastFrequent) {
  auto cache = MakeCache(CachePolicy::kLfu, 2);
  cache->Access(1);
  cache->Access(1);
  cache->Access(1);
  cache->Access(2);
  EXPECT_FALSE(cache->Access(3));  // evicts 2 (freq 1) not 1 (freq 3)
  EXPECT_TRUE(cache->Access(1));
  EXPECT_FALSE(cache->Access(2));
}

TEST(ClockTest, SecondChanceSparesReferencedPage) {
  auto cache = MakeCache(CachePolicy::kClock, 3);
  cache->Access(1);
  cache->Access(2);
  cache->Access(3);
  EXPECT_FALSE(cache->Access(4));  // full sweep clears all bits, evicts 1
  EXPECT_TRUE(cache->Access(2));   // re-references 2 after the sweep
  EXPECT_FALSE(cache->Access(5));  // hand skips referenced 2, evicts 3
  EXPECT_TRUE(cache->Access(2));
  EXPECT_TRUE(cache->Access(4));
  EXPECT_FALSE(cache->Access(3));
}

TEST(TwoQTest, PromotionViaGhostQueue) {
  auto cache = MakeCache(CachePolicy::kTwoQ, 8);
  // First touch goes to A1in (capacity 2 of 8).
  EXPECT_FALSE(cache->Access(1));
  EXPECT_TRUE(cache->Access(1));  // still in A1in
  // Push 1 out of A1in into the ghost queue.
  cache->Access(2);
  cache->Access(3);
  // Re-reference after eviction promotes into Am.
  EXPECT_FALSE(cache->Access(1));
  EXPECT_TRUE(cache->Access(1));
}

TEST(FrozenTest, OnlyPinnedRangeHits) {
  auto cache = MakeFrozenCache(100, 10);
  EXPECT_TRUE(cache->Access(100));
  EXPECT_TRUE(cache->Access(109));
  EXPECT_FALSE(cache->Access(99));
  EXPECT_FALSE(cache->Access(110));
  // Misses never evict / insert anything.
  EXPECT_FALSE(cache->Access(50));
  EXPECT_FALSE(cache->Access(50));
}

TEST(CachePolicyTest, FactoryProducesAllPolicies) {
  for (const CachePolicy policy :
       {CachePolicy::kFifo, CachePolicy::kLru, CachePolicy::kLfu, CachePolicy::kClock,
        CachePolicy::kTwoQ, CachePolicy::kFrozenHot}) {
    const auto cache = MakeCache(policy, 8);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->capacity_pages(), 8u);
  }
}

TEST(CachePolicyTest, StressNoCrashAndBoundedHits) {
  Rng rng(1);
  for (const CachePolicy policy : {CachePolicy::kFifo, CachePolicy::kLru, CachePolicy::kLfu,
                                   CachePolicy::kClock, CachePolicy::kTwoQ}) {
    auto cache = MakeCache(policy, 64);
    size_t hits = 0;
    const size_t n = 20000;
    for (size_t i = 0; i < n; ++i) {
      hits += cache->Access(rng.NextBounded(256)) ? 1 : 0;
    }
    EXPECT_GT(hits, 0u) << CachePolicyName(policy);
    EXPECT_LT(hits, n) << CachePolicyName(policy);
  }
}

TEST(AccessRangeTest, CountsPerPageHits) {
  auto cache = MakeCache(CachePolicy::kLru, 10);
  EXPECT_EQ(cache->AccessRange(0, 4), 0u);
  EXPECT_EQ(cache->AccessRange(2, 4), 2u);  // pages 2,3 hit; 4,5 miss
}

// --- Differential check against the node-based reference ----------------------

constexpr CachePolicy kEvictionPolicies[] = {CachePolicy::kFifo, CachePolicy::kLru,
                                             CachePolicy::kLfu, CachePolicy::kClock,
                                             CachePolicy::kTwoQ};

// Drives MakeCache and the reference side by side over one seeded stream and
// compares every page access. The stream mixes Zipf-skewed single-page
// touches with sequential bursts over a page universe a few times the
// capacity, so both caches evict (and 2Q's ghost queue sees re-references).
// Pages are spread by a seed-chosen stride so the index sees clustered as well
// as dense keys.
::testing::AssertionResult SameHitsAsReference(CachePolicy policy, size_t capacity,
                                               uint64_t seed) {
  auto flat = MakeCache(policy, capacity);
  auto ref = reference::MakeReferenceCache(policy, capacity);
  Rng rng(seed * 7919 + capacity);
  const uint64_t universe = (seed % 2 == 0 ? 2 : 6) * capacity + 3;
  const ZipfDistribution zipf(universe, seed % 3 == 0 ? 0.6 : 1.1);
  const uint64_t stride = uint64_t{1} << (seed % 4 * 6);  // 1, 64, 4096, 2^18
  const size_t accesses = 10000 + 12 * capacity;
  size_t done = 0;
  auto touch = [&](uint64_t rank) {
    const uint64_t page = rank * stride;
    const bool want = ref->Access(page);
    const bool got = flat->Access(page);
    ++done;
    return want == got;
  };
  while (done < accesses) {
    if (rng.NextBool(0.1)) {
      const uint64_t start = rng.NextBounded(universe);
      const uint64_t length = 1 + rng.NextBounded(32);
      for (uint64_t i = 0; i < length; ++i) {
        if (!touch(start + i)) {
          return ::testing::AssertionFailure() << "burst access " << done << " differs";
        }
      }
    } else if (!touch(zipf.Sample(rng))) {
      return ::testing::AssertionFailure() << "access " << done << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CacheDifferentialTest, EveryAccessMatchesTheNodeReference) {
  for (const CachePolicy policy : kEvictionPolicies) {
    for (const size_t capacity : {1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 100, 1000, 4096}) {
      for (const uint64_t seed : {1, 2, 3, 4}) {
        EXPECT_TRUE(SameHitsAsReference(policy, capacity, seed))
            << CachePolicyName(policy) << " capacity " << capacity << " seed " << seed;
      }
    }
  }
}

// The sized, run-level path: Reserve, then one AccessRange per IO. A seeded
// stream of runs with Zipf-skewed starts and 1-16 pages, every tenth a
// sequential burst of up to 64; `stride` spreads the starts so the index sees
// clustered as well as dense keys.
std::vector<PageRun> SkewedRuns(uint64_t universe, size_t count, uint64_t stride, uint64_t seed) {
  Rng rng(seed);
  const ZipfDistribution zipf(universe, 0.9);
  std::vector<PageRun> runs;
  for (size_t i = 0; i < count; ++i) {
    const bool burst = i % 10 == 9;
    const uint64_t start = burst ? rng.NextBounded(universe) : zipf.Sample(rng);
    runs.push_back({start * stride, static_cast<uint32_t>(1 + rng.NextBounded(burst ? 64 : 16))});
  }
  return runs;
}

size_t DistinctPages(std::span<const PageRun> runs) {
  std::vector<uint64_t> pages;
  for (const PageRun& run : runs) {
    for (uint32_t i = 0; i < run.pages; ++i) {
      pages.push_back(run.start_page + i);
    }
  }
  std::sort(pages.begin(), pages.end());
  return static_cast<size_t>(std::unique(pages.begin(), pages.end()) - pages.begin());
}

// Reserves `reserve` pages, then replays `runs` one AccessRange per run; each
// run's hits must equal the reference's page-by-page Access over the run.
::testing::AssertionResult SameRunHitsAsReference(CachePolicy policy, size_t capacity,
                                                  size_t reserve, std::span<const PageRun> runs) {
  auto flat = MakeCache(policy, capacity);
  auto ref = reference::MakeReferenceCache(policy, capacity);
  flat->Reserve(reserve);
  for (size_t r = 0; r < runs.size(); ++r) {
    size_t want = 0;
    for (uint32_t i = 0; i < runs[r].pages; ++i) {
      want += ref->Access(runs[r].start_page + i) ? 1 : 0;
    }
    const size_t got = flat->AccessRange(runs[r].start_page, runs[r].pages);
    if (got != want) {
      return ::testing::AssertionFailure() << "run " << r << ": " << got << " hits, want " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CacheDifferentialTest, SizedRunReplayMatchesTheNodeReference) {
  for (const uint64_t seed : {1, 2}) {
    const std::vector<PageRun> runs = SkewedRuns(3000, 1500, seed == 1 ? 1 : 4096, seed);
    size_t accesses = 0;
    for (const PageRun& run : runs) {
      accesses += run.pages;
    }
    const size_t distinct = DistinctPages(runs);
    ASSERT_GT(accesses, distinct);
    for (const CachePolicy policy : kEvictionPolicies) {
      // Capacities at or above the distinct pages fill without evicting (2Q
      // still ages A1in); the rest overflow, so eviction runs once the sized
      // storage is full.
      for (const size_t capacity : {distinct + 100, distinct, distinct / 3, size_t{64}, size_t{1}}) {
        // Reserves below, at and above the distinct pages, and ReplayRuns'
        // own choice, the page accesses.
        for (const size_t reserve : {size_t{0}, distinct / 2, distinct, 2 * distinct, accesses}) {
          EXPECT_TRUE(SameRunHitsAsReference(policy, capacity, reserve, runs))
              << CachePolicyName(policy) << " capacity " << capacity << " reserve " << reserve
              << " seed " << seed;
        }
      }
    }
  }
}

TEST(CacheDifferentialTest, ReplayRunsCountsAndFlagsMatchTheNodeReference) {
  std::vector<PageRun> runs = SkewedRuns(2000, 1200, 1, 3);
  runs[7].pages = 0;  // a zero-page run touches nothing and is never full
  runs.push_back({runs[0].start_page, 1});
  for (const CachePolicy policy : kEvictionPolicies) {
    for (const size_t capacity : {size_t{50}, size_t{500}, size_t{5000}}) {
      auto ref = reference::MakeReferenceCache(policy, capacity);
      PageReplayTotals want;
      std::vector<uint8_t> want_full;
      for (const PageRun& run : runs) {
        size_t hits = 0;
        for (uint32_t i = 0; i < run.pages; ++i) {
          hits += ref->Access(run.start_page + i) ? 1 : 0;
        }
        want.hits += hits;
        want.accesses += run.pages;
        want_full.push_back(run.pages > 0 && hits == run.pages ? 1 : 0);
      }
      std::vector<uint8_t> full(runs.size(), 7);
      const PageReplayTotals got = ReplayRuns(*MakeCache(policy, capacity), runs, full);
      EXPECT_EQ(got.hits, want.hits) << CachePolicyName(policy) << " " << capacity;
      EXPECT_EQ(got.accesses, want.accesses) << CachePolicyName(policy) << " " << capacity;
      EXPECT_EQ(full, want_full) << CachePolicyName(policy) << " " << capacity;
      // Without flags the totals are the same.
      const PageReplayTotals bare = ReplayRuns(*MakeCache(policy, capacity), runs);
      EXPECT_EQ(bare.hits, want.hits) << CachePolicyName(policy) << " " << capacity;
      EXPECT_EQ(bare.accesses, want.accesses) << CachePolicyName(policy) << " " << capacity;
    }
  }
  std::vector<uint8_t> short_flags(runs.size() - 1);
  EXPECT_THROW(ReplayRuns(*MakeCache(CachePolicy::kLru, 8), runs, short_flags),
               std::invalid_argument);
  // FrozenHot stores nothing to size; its runs hit inside the pinned range.
  const PageRun pinned[] = {{100, 4}, {98, 4}, {110, 1}};
  std::vector<uint8_t> frozen_full(3);
  const PageReplayTotals frozen = ReplayRuns(*MakeFrozenCache(100, 10), pinned, frozen_full);
  EXPECT_EQ(frozen.hits, 6u);
  EXPECT_EQ(frozen.accesses, 9u);
  EXPECT_EQ(frozen_full, (std::vector<uint8_t>{1, 0, 0}));
}

// --- Hotspot analysis --------------------------------------------------------

TraceDataset HotTraces(const Fleet& fleet, VdId vd, double window_seconds) {
  // 60 IOs in block 2 (writes), 20 IOs in block 5 (reads), 20 scattered.
  TraceDataset traces;
  traces.window_seconds = window_seconds;
  const uint64_t block = 64ULL * kMiB;
  auto push = [&](double ts, uint64_t offset, OpType op) {
    TraceRecord r;
    r.timestamp = ts;
    r.offset = offset;
    r.op = op;
    r.size_bytes = 16 * 1024;
    r.vd = vd;
    r.vm = fleet.vds[vd.value()].vm;
    traces.records.push_back(r);
  };
  for (int i = 0; i < 60; ++i) {
    push(window_seconds * i / 100.0, 2 * block + 4096 * (i % 8), OpType::kWrite);
  }
  for (int i = 0; i < 20; ++i) {
    push(window_seconds * i / 40.0, 5 * block + 8192, OpType::kRead);
  }
  for (int i = 0; i < 20; ++i) {
    push(window_seconds * i / 25.0, (10 + i) * block, OpType::kWrite);
  }
  return traces;
}

TEST(HotspotTest, FindsHottestBlock) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  const VdTraceIndex index(fleet, traces);
  const auto stats = AnalyzeHottestBlock(index.ForVd(VdId(0)), 64ULL * kGiB, 64ULL * kMiB,
                                         100.0, 10.0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->block_index, 2u);
  EXPECT_EQ(stats->total_accesses, 100u);
  EXPECT_EQ(stats->block_accesses, 60u);
  EXPECT_DOUBLE_EQ(stats->access_rate, 0.6);
  EXPECT_DOUBLE_EQ(stats->wr_ratio, 1.0);  // hottest block is write-only
}

TEST(HotspotTest, ReadDominantBlock) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  TraceDataset traces;
  traces.window_seconds = 10.0;
  for (int i = 0; i < 10; ++i) {
    TraceRecord r;
    r.timestamp = i;
    r.offset = 0;
    r.op = OpType::kRead;
    r.size_bytes = 4096;
    r.vd = VdId(0);
    traces.records.push_back(r);
  }
  const VdTraceIndex index(fleet, traces);
  const auto stats =
      AnalyzeHottestBlock(index.ForVd(VdId(0)), 64ULL * kGiB, 64ULL * kMiB, 10.0, 1.0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->wr_ratio, -1.0);
}

TEST(HotspotTest, EmptyTracesGiveNullopt) {
  EXPECT_FALSE(AnalyzeHottestBlock({}, 64ULL * kGiB, 64ULL * kMiB, 10.0, 1.0).has_value());
}

TEST(HotspotTest, RejectsWindowsThatAreNotFiniteAndPositive) {
  // A zero subwindow used to return hot_rate 1.0, and -1 or NaN reached an
  // undefined float-to-integer cast. Each is rejected before any work, also
  // for a VD without IOs.
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  const VdTraceIndex index(fleet, traces);
  const auto analyze = [&index](std::span<const TraceRecord* const> records, double window,
                                double subwindow) {
    return AnalyzeHottestBlock(records, 64ULL * kGiB, 64ULL * kMiB, window, subwindow);
  };
  const std::span<const TraceRecord* const> vd = index.ForVd(VdId(0));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(analyze(vd, 100.0, bad), std::invalid_argument);
    EXPECT_THROW(analyze(vd, bad, 10.0), std::invalid_argument);
    EXPECT_THROW(analyze({}, 100.0, bad), std::invalid_argument);
  }
  // 1e-300 s subwindows number 1e302, more than a double counts exactly.
  EXPECT_THROW(analyze(vd, 100.0, 1e-300), std::invalid_argument);

  // Valid edges: one subwindow as long as the window (the FrozenHot and
  // cache-study callers), a longer one that still counts as one, and tiny
  // lengths whose ratio is small.
  const auto whole = analyze(vd, 100.0, 100.0);
  ASSERT_TRUE(whole.has_value());
  EXPECT_DOUBLE_EQ(whole->hot_rate, 1.0);
  const auto longer = analyze(vd, 100.0, 1000.0);
  ASSERT_TRUE(longer.has_value());
  EXPECT_DOUBLE_EQ(longer->hot_rate, 1.0);
  EXPECT_TRUE(analyze(vd, 1e-300, 1e-300).has_value());
}

TEST(HotspotTest, SizeAndTouchedFractions) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  const VdTraceIndex index(fleet, traces);
  const auto stats = AnalyzeHottestBlock(index.ForVd(VdId(0)), 64ULL * kGiB, 64ULL * kMiB,
                                         100.0, 10.0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->size_fraction, 64.0 / (64.0 * 1024.0));
  EXPECT_GT(stats->touched_fraction, 0.0);
  EXPECT_LE(stats->touched_fraction, 1.0);
}

TEST(HotspotTest, VdTraceIndexOrdersActiveVdsBySampleCount) {
  const Fleet fleet = MakeTinyFleet({{{1}}, {{1}}});
  TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  TraceRecord r;
  r.vd = VdId(1);
  r.offset = 0;
  r.size_bytes = 4096;
  traces.records.push_back(r);
  const VdTraceIndex index(fleet, traces);
  const auto active = index.ActiveVds(1);
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0], VdId(0));
  EXPECT_EQ(index.ForVd(VdId(1)).size(), 1u);
  EXPECT_TRUE(index.ActiveVds(50).size() == 1u);
}

TEST(HotspotTest, FrozenReplayPinsHottestBlock) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  const VdTraceIndex index(fleet, traces);
  const auto frozen = ReplayVdCache(index.ForVd(VdId(0)), 64ULL * kGiB, 64ULL * kMiB,
                                    CachePolicy::kFrozenHot);
  // All 60 hottest-block IOs (of 100, 4 pages each) hit; others miss.
  EXPECT_NEAR(frozen.hit_ratio, 0.6, 1e-9);
}

TEST(HotspotTest, LruReplayCapturesReuse) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  const VdTraceIndex index(fleet, traces);
  const auto lru =
      ReplayVdCache(index.ForVd(VdId(0)), 64ULL * kGiB, 64ULL * kMiB, CachePolicy::kLru);
  // The hottest block cycles over 8 distinct offsets and the read block over
  // one: plenty of reuse, minus cold misses.
  EXPECT_GT(lru.hit_ratio, 0.5);
  EXPECT_LT(lru.hit_ratio, 1.0);
}

// --- Sub-page capacities ------------------------------------------------------

class SubPageCapacityTest : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(SubPageCapacityTest, MakeCacheRejectsZeroPages) {
  EXPECT_THROW(MakeCache(GetParam(), 0), std::invalid_argument);
}

TEST_P(SubPageCapacityTest, ReplayVdCacheIsEmptyBelowOnePage) {
  // A sub-page block sizes a zero-page cache; the replay reports nothing, the
  // same as block_bytes == 0.
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  const VdTraceIndex index(fleet, traces);
  for (const uint64_t block_bytes : {uint64_t{1}, uint64_t{1001}, kPageBytes - 1}) {
    std::vector<uint8_t> full_hits;
    const CacheReplayResult result =
        ReplayVdCache(index.ForVd(VdId(0)), 64ULL * kGiB, block_bytes, GetParam(), &full_hits);
    EXPECT_EQ(result.page_accesses, 0u) << block_bytes;
    EXPECT_EQ(result.hit_ratio, 0.0) << block_bytes;
    EXPECT_EQ(full_hits, std::vector<uint8_t>(traces.records.size(), 0)) << block_bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(EvictionPolicies, SubPageCapacityTest,
                         ::testing::ValuesIn(kEvictionPolicies),
                         [](const ::testing::TestParamInfo<CachePolicy>& policy) {
                           return std::string(CachePolicyName(policy.param));
                         });

// --- Online cache sink ----------------------------------------------------------

// Drives an OnlineCacheSink by hand through one run: the events in `records`
// order, admission closed for events [close_at, reopen_at). Returns, per VD,
// the records the sink should replay: admitted and not timed out.
std::vector<std::vector<const TraceRecord*>> DriveCacheSink(
    const Fleet& fleet, const std::vector<TraceRecord>& records, size_t close_at,
    size_t reopen_at, OnlineCacheSink* sink) {
  std::vector<std::vector<const TraceRecord*>> admitted(fleet.vds.size());
  sink->OnStart(fleet, /*window_steps=*/1, /*step_seconds=*/1.0);
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == close_at) {
      sink->set_admission_enabled(false);
    }
    if (i == reopen_at) {
      sink->set_admission_enabled(true);
    }
    ReplayEvent event;
    event.record = records[i];
    sink->OnEvent(event);
    if (sink->admission_enabled() && !records[i].fault_timed_out) {
      admitted[records[i].vd.value()].push_back(&records[i]);
    }
  }
  return admitted;
}

TEST(OnlineCacheSinkTest, DeferredReplayMatchesReplayVdCacheOverTheAdmittedRecords) {
  const Fleet fleet = MakeTinyFleet({{{1}}, {{1}}});
  // Two VDs, interleaved. VD 0 cycles through 12 pages on a 4-page LRU, so its
  // hits depend on its access order; VD 1 touches a few 2-page IOs.
  std::vector<TraceRecord> records;
  uint64_t lcg = 7;
  for (int i = 0; i < 400; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    TraceRecord r;
    r.timestamp = i * 0.001;
    r.vd = VdId(i % 3 == 2 ? 1 : 0);
    r.vm = fleet.vds[r.vd.value()].vm;
    r.size_bytes = r.vd == VdId(1) ? 2 * kPageBytes : kPageBytes;
    r.offset = kPageBytes * ((lcg >> 33) % (r.vd == VdId(1) ? 5 : 12));
    records.push_back(r);
  }
  records[57].fault_timed_out = true;
  const size_t close_at = 120;
  const size_t reopen_at = 170;

  constexpr uint64_t kBlockBytes = 4 * kPageBytes;
  OnlineCacheSink sink(CachePolicy::kLru, kBlockBytes);
  for (int run = 0; run < 2; ++run) {
    const auto admitted = DriveCacheSink(fleet, records, close_at, reopen_at, &sink);
    // Nothing is replayed before OnFinish: an aborted run reads zero.
    EXPECT_EQ(sink.total_page_accesses(), 0u) << run;
    EXPECT_EQ(sink.ResultFor(VdId(0)).page_accesses, 0u) << run;
    sink.OnFinish();

    EXPECT_EQ(sink.fault_bypassed_events(), 1u) << run;
    EXPECT_EQ(sink.admission_skipped_events(), reopen_at - close_at) << run;
    uint64_t accesses = 0;
    uint64_t hits = 0;
    for (const VdId vd : {VdId(0), VdId(1)}) {
      const CacheReplayResult expected =
          ReplayVdCache(admitted[vd.value()], /*capacity_bytes=*/0, kBlockBytes,
                        CachePolicy::kLru);
      const CacheReplayResult online = sink.ResultFor(vd);
      EXPECT_GT(expected.page_accesses, 0u) << vd.value();
      EXPECT_EQ(online.page_accesses, expected.page_accesses) << run << " " << vd.value();
      EXPECT_EQ(online.hit_ratio, expected.hit_ratio) << run << " " << vd.value();
      accesses += expected.page_accesses;
      hits += static_cast<uint64_t>(
          std::llround(expected.hit_ratio * static_cast<double>(expected.page_accesses)));
    }
    EXPECT_EQ(sink.total_page_accesses(), accesses) << run;
    EXPECT_EQ(sink.total_page_hits(), hits) << run;

    // The check above can see a reordering: VD 0's hits change with its
    // order (grouped by page, nearly every access after the first hits).
    std::vector<const TraceRecord*> by_page = admitted[0];
    const auto by_offset = [](const TraceRecord* a, const TraceRecord* b) {
      return a->offset < b->offset;
    };
    std::stable_sort(by_page.begin(), by_page.end(), by_offset);
    EXPECT_NE(ReplayVdCache(by_page, 0, kBlockBytes, CachePolicy::kLru).hit_ratio,
              sink.ResultFor(VdId(0)).hit_ratio);
  }
}

TEST(OnlineCacheSinkTest, ReplayInChunksOnHelpersMatchesReplayVdCachePerVd) {
  // 48 VDs, 38,832 entries: VD 0 has 5,000 and VD v the other 200 + (v * 7919)
  // % 900. At 4,096 entries per replay chunk they replay as 9 chunks (VD 0
  // alone, then VDs 1-6, 7-12, 13-18, 19-25, 26-31, 32-37, 38-44 and 45-47),
  // on helper threads wherever the machine has more than one core. Every VD
  // touches the same 64 pages through a 16-page cache, so a cache shared by a
  // chunk's VDs, or a chunk left out, changes some VD's result.
  constexpr size_t kVds = 48;
  const Fleet fleet = MakeTinyFleet({TinyVmSpec{std::vector<int>(kVds, 1)}});
  std::vector<uint32_t> order;
  for (uint32_t vd = 0; vd < kVds; ++vd) {
    order.insert(order.end(), vd == 0 ? 5000 : 200 + (vd * 7919) % 900, vd);
  }
  ASSERT_EQ(order.size(), 38832u);
  Rng rng(11);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  std::vector<TraceRecord> records(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    records[i].timestamp = static_cast<double>(i) * 1e-4;
    records[i].vd = VdId(order[i]);
    records[i].vm = fleet.vds[order[i]].vm;
    records[i].size_bytes = static_cast<uint32_t>((1 + rng.NextBounded(4)) * kPageBytes);
    records[i].offset = kPageBytes * rng.NextBounded(61);
  }

  constexpr uint64_t kBlockBytes = 16 * kPageBytes;
  for (const CachePolicy policy : kEvictionPolicies) {
    SCOPED_TRACE(CachePolicyName(policy));
    OnlineCacheSink sink(policy, kBlockBytes);
    const auto admitted =
        DriveCacheSink(fleet, records, records.size(), records.size(), &sink);
    sink.OnFinish();
    uint64_t accesses = 0;
    uint64_t hits = 0;
    for (uint32_t vd = 0; vd < kVds; ++vd) {
      const CacheReplayResult expected =
          ReplayVdCache(admitted[vd], /*capacity_bytes=*/0, kBlockBytes, policy);
      const CacheReplayResult online = sink.ResultFor(VdId(vd));
      ASSERT_GT(expected.page_accesses, 0u) << vd;
      EXPECT_EQ(online.page_accesses, expected.page_accesses) << vd;
      EXPECT_EQ(online.hit_ratio, expected.hit_ratio) << vd;
      accesses += expected.page_accesses;
      hits += static_cast<uint64_t>(
          std::llround(expected.hit_ratio * static_cast<double>(expected.page_accesses)));
    }
    EXPECT_EQ(sink.total_page_accesses(), accesses);
    EXPECT_EQ(sink.total_page_hits(), hits);
  }
}

// --- Cache location ----------------------------------------------------------

TEST(LocationTest, LatencyGainsOrdering) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  // All IOs hammer one block so the VD is cacheable; give every record a
  // fixed latency breakdown.
  TraceDataset traces;
  traces.window_seconds = 10.0;
  for (int i = 0; i < 200; ++i) {
    TraceRecord r;
    r.timestamp = i * 0.05;
    r.offset = (i % 10 < 8) ? 4096ULL * (i % 4) : 10ULL * kGiB + 4096ULL * i;
    r.op = i % 4 == 0 ? OpType::kRead : OpType::kWrite;
    r.size_bytes = 4096;
    r.vd = VdId(0);
    r.vm = VmId(0);
    r.segment = fleet.vds[0].segments[0];
    for (int c = 0; c < kStackComponentCount; ++c) {
      r.latency.component_us[c] = 20.0;
    }
    traces.records.push_back(r);
  }
  const VdTraceIndex index(fleet, traces);
  CacheLocationConfig config;
  config.block_bytes = 64ULL * kMiB;
  config.cacheable_threshold = 0.25;
  const auto analysis = AnalyzeCacheLocation(fleet, traces, index, config);
  EXPECT_EQ(analysis.cacheable_vds, 1u);
  for (int op = 0; op < kOpTypeCount; ++op) {
    const LatencyGain& cn = analysis.gain[op][0];
    const LatencyGain& bs = analysis.gain[op][1];
    // CN hit (20 + flash) is far below BS hit (60 + flash) and full (100).
    EXPECT_LT(cn.p50, bs.p50);
    EXPECT_LE(bs.p50, 1.0);
    // p99 sits in the miss tail: no gain.
    EXPECT_NEAR(cn.p99, 1.0, 0.05);
  }
}

TEST(LocationTest, NonCacheableVdGetsNoGain) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  TraceDataset traces;
  traces.window_seconds = 10.0;
  // Perfectly scattered accesses: no block exceeds the threshold.
  for (int i = 0; i < 100; ++i) {
    TraceRecord r;
    r.timestamp = i * 0.1;
    r.offset = static_cast<uint64_t>(i) * 512ULL * kMiB % (64ULL * kGiB);
    r.op = OpType::kWrite;
    r.size_bytes = 4096;
    r.vd = VdId(0);
    r.vm = VmId(0);
    r.segment = fleet.SegmentForOffset(VdId(0), r.offset);
    for (int c = 0; c < kStackComponentCount; ++c) {
      r.latency.component_us[c] = 20.0;
    }
    traces.records.push_back(r);
  }
  const VdTraceIndex index(fleet, traces);
  CacheLocationConfig config;
  config.block_bytes = 64ULL * kMiB;
  const auto analysis = AnalyzeCacheLocation(fleet, traces, index, config);
  EXPECT_EQ(analysis.cacheable_vds, 0u);
  EXPECT_DOUBLE_EQ(analysis.gain[1][0].p50, 1.0);
}

TEST(LocationTest, RejectsConfigsItCannotRun) {
  const Fleet fleet = MakeTinyFleet({{{1}}});
  const TraceDataset traces = HotTraces(fleet, VdId(0), 100.0);
  const VdTraceIndex index(fleet, traces);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  CacheLocationConfig valid;
  valid.block_bytes = 64ULL * kMiB;

  std::vector<CacheLocationConfig> bad;
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
    EXPECT_THROW(AnalyzeCacheLocation(fleet, traces, index, bad[i]), std::invalid_argument)
        << i;
  }

  // The edges run: every VD with IOs is cacheable at threshold 0, and zero
  // flash latencies are allowed.
  CacheLocationConfig edge = valid;
  edge.cacheable_threshold = 0.0;
  edge.flash_read_us = 0.0;
  edge.flash_write_us = 0.0;
  EXPECT_EQ(AnalyzeCacheLocation(fleet, traces, index, edge).cacheable_vds, 1u);
  edge.cacheable_threshold = 1.0;
  EXPECT_EQ(AnalyzeCacheLocation(fleet, traces, index, edge).cacheable_vds, 0u);
}

TEST(LocationTest, SiteNames) {
  EXPECT_STREQ(CacheSiteName(CacheSite::kComputeNode), "CN-cache");
  EXPECT_STREQ(CacheSiteName(CacheSite::kBlockServer), "BS-cache");
}

}  // namespace
}  // namespace ebs
