// Property-style parameterized sweeps (TEST_P) over seeds and parameters:
// invariants that must hold for any input the toolkit generates.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <type_traits>

#include "src/cache/policy.h"
#include "src/fault/schedule.h"
#include "src/util/distributions.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/generator.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

// --- Stats invariants over random vectors ------------------------------------

class StatsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsPropertyTest, NormalizedCovStaysInUnitInterval) {
  Rng rng(GetParam());
  const size_t n = 2 + rng.NextBounded(64);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.NextBool(0.3) ? 0.0 : rng.NextDouble() * 1e9;
  }
  const double cov = NormalizedCoV(v);
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0 + 1e-12);
}

TEST_P(StatsPropertyTest, CcrIsMonotoneAndBounded) {
  Rng rng(GetParam());
  std::vector<double> v(1 + rng.NextBounded(100));
  for (double& x : v) {
    x = rng.NextDouble() * 1e6;
  }
  double prev = 0.0;
  for (double f = 0.05; f <= 1.0; f += 0.05) {
    const double ccr = Ccr(v, f);
    EXPECT_GE(ccr, prev - 1e-12);
    EXPECT_LE(ccr, 1.0 + 1e-12);
    prev = ccr;
  }
}

TEST_P(StatsPropertyTest, CcrTopFractionAtLeastProportional) {
  // The top x% always carries at least x% of the traffic.
  Rng rng(GetParam());
  std::vector<double> v(10 + rng.NextBounded(90));
  for (double& x : v) {
    x = rng.NextDouble();
  }
  for (const double f : {0.1, 0.2, 0.5}) {
    EXPECT_GE(Ccr(v, f) + 1e-9, f * 0.9);  // slack for rounding of counts
  }
}

TEST_P(StatsPropertyTest, PercentileIsMonotoneInPct) {
  Rng rng(GetParam());
  std::vector<double> v(1 + rng.NextBounded(50));
  for (double& x : v) {
    x = rng.NextGaussian();
  }
  double prev = Percentile(v, 0.0);
  for (double pct = 5.0; pct <= 100.0; pct += 5.0) {
    const double value = Percentile(v, pct);
    EXPECT_GE(value, prev - 1e-12);
    prev = value;
  }
}

TEST_P(StatsPropertyTest, PeakToAverageAtLeastOne) {
  Rng rng(GetParam());
  std::vector<double> v(1 + rng.NextBounded(100));
  bool any = false;
  for (double& x : v) {
    x = rng.NextBool(0.5) ? rng.NextDouble() : 0.0;
    any |= x > 0.0;
  }
  const double p2a = PeakToAverage(v);
  if (any) {
    EXPECT_GE(p2a, 1.0 - 1e-12);
    EXPECT_LE(p2a, static_cast<double>(v.size()) + 1e-9);
  } else {
    EXPECT_DOUBLE_EQ(p2a, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertyTest, ::testing::Range<uint64_t>(1, 21));

// --- Zipf invariants over alpha ----------------------------------------------

class ZipfPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfPropertyTest, MeanRankShrinksWithAlpha) {
  const double alpha = GetParam();
  Rng rng(99);
  const ZipfDistribution zipf(10000, alpha);
  const ZipfDistribution steeper(10000, alpha + 0.5);
  double mean = 0.0;
  double steeper_mean = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    mean += static_cast<double>(zipf.Sample(rng));
    steeper_mean += static_cast<double>(steeper.Sample(rng));
  }
  EXPECT_LT(steeper_mean, mean);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfPropertyTest, ::testing::Values(0.6, 0.9, 1.0, 1.2, 1.6));

// --- Cache invariants over policies and seeds --------------------------------

// gtest names each case by a byte dump of the parameter, so the struct spells
// out its padding: uninitialized padding bytes would change the names per run.
struct CacheCase {
  CachePolicy policy;
  std::array<uint8_t, 7> zero_pad;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<CacheCase>);

class CachePropertyTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CachePropertyTest, ColdMissesThenDeterministicReplay) {
  const CachePolicy policy = GetParam().policy;
  const uint64_t seed = GetParam().seed;
  auto a = MakeCache(policy, 32);
  auto b = MakeCache(policy, 32);
  Rng rng(seed);
  std::vector<uint64_t> pages(5000);
  for (auto& page : pages) {
    page = rng.NextBounded(128);
  }
  std::vector<bool> seen(128, false);
  for (const uint64_t page : pages) {
    const bool hit_a = a->Access(page);
    const bool hit_b = b->Access(page);
    EXPECT_EQ(hit_a, hit_b);  // same policy, same stream -> same decisions
    if (!seen[page]) {
      EXPECT_FALSE(hit_a);  // a never-seen page cannot hit
      seen[page] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CachePropertyTest,
    ::testing::Values(CacheCase{CachePolicy::kFifo, {}, 1}, CacheCase{CachePolicy::kLru, {}, 2},
                      CacheCase{CachePolicy::kLfu, {}, 3}, CacheCase{CachePolicy::kClock, {}, 4},
                      CacheCase{CachePolicy::kTwoQ, {}, 5}));

// --- Workload invariants over seeds -------------------------------------------

class WorkloadPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkloadPropertyTest, GeneratorInvariantsHoldForAnySeed) {
  FleetConfig fleet_config;
  fleet_config.seed = GetParam();
  fleet_config.user_count = 12;
  const Fleet fleet = BuildFleet(fleet_config);
  WorkloadConfig config;
  config.seed = GetParam() * 3 + 1;
  config.window_steps = 60;
  const WorkloadResult result = WorkloadGenerator(fleet, config).Generate();

  // Dataset shapes.
  EXPECT_EQ(result.metrics.qp_series.size(), fleet.qps.size());
  EXPECT_EQ(result.offered_vd.size(), fleet.vds.size());
  EXPECT_EQ(result.vd_truth.size(), fleet.vds.size());

  // Compute and storage domains carry the same bytes.
  double qp_total = 0.0;
  for (const RwSeries& series : result.metrics.qp_series) {
    qp_total += series.TotalBytes();
  }
  double seg_total = 0.0;
  result.metrics.segment_series.ForEachSorted([&](uint32_t key, const RwSeries& series) {
    seg_total += series.TotalBytes();
    EXPECT_LT(key, fleet.segments.size());
  });
  EXPECT_NEAR(seg_total, qp_total, std::max(1.0, qp_total) * 1e-6);

  // Traces reference valid entities, in order, within the window.
  double prev_ts = 0.0;
  for (const TraceRecord& r : result.traces.records) {
    EXPECT_LT(r.vd.value(), fleet.vds.size());
    EXPECT_LT(r.offset, fleet.vds[r.vd.value()].capacity_bytes);
    EXPECT_GE(r.timestamp, prev_ts);
    prev_ts = r.timestamp;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadPropertyTest, ::testing::Range<uint64_t>(1, 9));

// --- Fault invariants over random schedules ------------------------------------

class FaultPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultPropertyTest, EffectsAreMonotoneInFailureDensityAndConserveBytes) {
  // RandomSchedule(fleet, window, seed, k) schedules nest: the first k events
  // of a larger schedule equal the k-event schedule. A larger event set can
  // only enlarge the per-step down-sets and severities, so fault effects must
  // be monotone in the event count — and no schedule may ever change WHICH
  // IOs are sampled, only how they complete.
  FleetConfig fleet_config;
  fleet_config.seed = GetParam();
  fleet_config.user_count = 12;
  const Fleet fleet = BuildFleet(fleet_config);
  WorkloadConfig base_config;
  base_config.seed = GetParam() * 3 + 1;
  base_config.window_steps = 60;
  const uint64_t schedule_seed = GetParam() * 7 + 3;

  std::vector<double> baseline_vd_bytes;
  FaultStats prev;
  for (const size_t event_count : {0u, 2u, 4u, 8u, 12u}) {
    WorkloadConfig config = base_config;
    config.faults =
        RandomSchedule(fleet, config.window_steps, schedule_seed, event_count);
    ASSERT_EQ(config.faults.events.size(), event_count);
    const WorkloadResult result = WorkloadGenerator(fleet, config).Generate();
    const FaultStats& stats = result.faults;

    // Accounting identity: every sampled IO either completed or timed out.
    if (event_count == 0) {
      EXPECT_EQ(stats.issued, 0u);  // empty schedule: fault layer skipped
    } else {
      EXPECT_EQ(stats.issued, result.traces.records.size());
    }
    EXPECT_EQ(stats.issued, stats.completed + stats.timed_out);

    // Monotone in failure density (nested schedules).
    EXPECT_GE(stats.retries, prev.retries) << event_count << " events";
    EXPECT_GE(stats.timed_out, prev.timed_out) << event_count << " events";
    EXPECT_GE(stats.degraded_steps, prev.degraded_steps) << event_count << " events";
    prev = stats;

    // Per-VD byte conservation: failover re-homes IOs but never invents or
    // drops traffic — the sampled per-VD byte totals match the healthy run.
    std::vector<double> vd_bytes(fleet.vds.size(), 0.0);
    for (const TraceRecord& r : result.traces.records) {
      vd_bytes[r.vd.value()] += r.size_bytes;
    }
    if (baseline_vd_bytes.empty()) {
      baseline_vd_bytes = std::move(vd_bytes);
    } else {
      EXPECT_EQ(vd_bytes, baseline_vd_bytes) << event_count << " events";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPropertyTest, ::testing::Range<uint64_t>(1, 7));

// --- Alias-method categorical over random weight vectors ----------------------

class CategoricalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CategoricalPropertyTest, EmpiricalMatchesWeights) {
  Rng rng(GetParam());
  const size_t k = 2 + rng.NextBounded(10);
  std::vector<double> weights(k);
  double total = 0.0;
  for (double& w : weights) {
    w = rng.NextDouble() + 0.01;
    total += w;
  }
  const CategoricalDistribution dist(weights);
  std::vector<double> counts(k, 0.0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    counts[dist.Sample(rng)] += 1.0;
  }
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(counts[i] / n, weights[i] / total, 0.015);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CategoricalPropertyTest, ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace ebs
