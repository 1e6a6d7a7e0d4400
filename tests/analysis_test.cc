// Tests for the skewness measurement pipelines.

#include "src/analysis/skewness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "src/util/distributions.h"
#include "src/util/stats.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

std::vector<RwSeries> MakeEntities(size_t count, size_t steps) {
  return std::vector<RwSeries>(count, RwSeries(steps, 1.0));
}

TEST(SkewnessTest, EntityTotals) {
  auto entities = MakeEntities(2, 3);
  entities[0].read_bytes[0] = 1.0;
  entities[0].read_bytes[2] = 2.0;
  entities[1].write_bytes[1] = 5.0;
  const auto reads = EntityTotals(entities, OpType::kRead);
  EXPECT_DOUBLE_EQ(reads[0], 3.0);
  EXPECT_DOUBLE_EQ(reads[1], 0.0);
  const auto writes = EntityTotals(entities, OpType::kWrite);
  EXPECT_DOUBLE_EQ(writes[1], 5.0);
}

TEST(SkewnessTest, EntityP2aSkipsIdleEntities) {
  auto entities = MakeEntities(3, 4);
  entities[0].read_bytes[1] = 8.0;  // P2A = 8 / 2 = 4
  const auto p2a = EntityP2a(entities, OpType::kRead);
  ASSERT_EQ(p2a.size(), 1u);
  EXPECT_DOUBLE_EQ(p2a[0], 4.0);
}

TEST(SkewnessTest, LevelSkewnessOnKnownDistribution) {
  auto entities = MakeEntities(100, 2);
  // One whale and 99 minnows.
  entities[0].write_bytes[0] = 99.0;
  for (size_t i = 1; i < 100; ++i) {
    entities[i].write_bytes[0] = 1.0;
  }
  const LevelSkewness skew = ComputeLevelSkewness(entities);
  EXPECT_NEAR(skew.ccr1[1], 0.5, 1e-9);   // 99 of 198
  EXPECT_DOUBLE_EQ(skew.ccr1[0], 0.0);    // no read traffic at all
  EXPECT_DOUBLE_EQ(skew.p2a50[1], 2.0);   // all active in 1 of 2 steps
}

// The composition ComputeLevelSkewness replaced, written out: three passes
// per channel (SumAll, then PeakToAverage's mean and max_element).
LevelSkewness ThreePassSkewness(std::span<const RwSeries> entities) {
  LevelSkewness out;
  for (const OpType op : {OpType::kRead, OpType::kWrite}) {
    const int i = static_cast<int>(op);
    std::vector<double> totals;
    std::vector<double> p2a;
    for (const RwSeries& e : entities) {
      totals.push_back(e.Bytes(op).SumAll());
      const double value = e.Bytes(op).PeakToAverage();
      if (value > 0.0) {
        p2a.push_back(value);
      }
    }
    out.ccr1[i] = Ccr(totals, 0.01);
    out.ccr20[i] = Ccr(totals, 0.20);
    out.p2a50[i] = Percentile(p2a, 50.0);
  }
  return out;
}

std::vector<uint64_t> Bits(std::span<const double> values) {
  std::vector<uint64_t> bits;
  for (const double v : values) {
    bits.push_back(std::bit_cast<uint64_t>(v));
  }
  return bits;
}

void ExpectSameBits(std::span<const RwSeries> entities) {
  const LevelSkewness got = ComputeLevelSkewness(entities);
  const LevelSkewness want = ThreePassSkewness(entities);
  for (int i = 0; i < kOpTypeCount; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.ccr1[i]), std::bit_cast<uint64_t>(want.ccr1[i])) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.ccr20[i]), std::bit_cast<uint64_t>(want.ccr20[i])) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.p2a50[i]), std::bit_cast<uint64_t>(want.p2a50[i])) << i;
  }
  for (const OpType op : {OpType::kRead, OpType::kWrite}) {
    std::vector<double> totals;
    std::vector<double> p2a;
    for (const RwSeries& e : entities) {
      totals.push_back(e.Bytes(op).SumAll());
      if (e.Bytes(op).PeakToAverage() > 0.0) {
        p2a.push_back(e.Bytes(op).PeakToAverage());
      }
    }
    EXPECT_EQ(Bits(EntityTotals(entities, op)), Bits(totals));
    EXPECT_EQ(Bits(EntityP2a(entities, op)), Bits(p2a));
  }
}

// One channel's cells: skewed magnitudes whose sum depends on the order of
// addition, repeated peaks, and zeros of both signs.
void FillChannel(TimeSeries& series, Rng& rng) {
  for (size_t t = 0; t < series.size(); ++t) {
    switch (rng.NextBounded(8)) {
      case 0:
        series[t] = 1e16 * static_cast<double>(1 + rng.NextBounded(3));
        break;
      case 1:
        series[t] = -0.0;
        break;
      case 2:
        series[t] = 0.0;
        break;
      default:
        series[t] = 0.1 * static_cast<double>(rng.NextBounded(1000));
    }
  }
}

TEST(SkewnessTest, FoldChannelPeakIsTheFirstMaximum) {
  // std::max_element keeps the first of equal maxima, and equal doubles differ
  // only in the sign of zero: a fold that took the last maximum would read
  // +0.0 here.
  const double signed_zeros[] = {-0.0, 0.0};
  const ChannelFold zeros = FoldChannel(signed_zeros);
  EXPECT_EQ(std::bit_cast<uint64_t>(zeros.peak), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(zeros.peak),
            std::bit_cast<uint64_t>(*std::max_element(std::begin(signed_zeros),
                                                      std::end(signed_zeros))));
  EXPECT_EQ(zeros.p2a, 0.0);

  // The peak starts from the first value, not from 0: an all-negative
  // channel peaks below zero (and, its mean negative, has no P2A).
  const double negative[] = {-3.0, -1.0, -2.0};
  const ChannelFold below = FoldChannel(negative);
  EXPECT_EQ(below.peak, -1.0);
  EXPECT_EQ(below.total, -6.0);
  EXPECT_EQ(below.p2a, 0.0);

  const double mixed[] = {1.0, 4.0, 4.0, -1.0};
  const ChannelFold fold = FoldChannel(mixed);
  EXPECT_EQ(fold.total, 8.0);
  EXPECT_EQ(fold.peak, 4.0);
  EXPECT_EQ(fold.p2a, 2.0);

  const ChannelFold empty = FoldChannel({});
  EXPECT_EQ(empty.total, 0.0);
  EXPECT_EQ(empty.peak, 0.0);
  EXPECT_EQ(empty.p2a, 0.0);
}

TEST(SkewnessTest, OnePassKernelMatchesTheThreePassCompositionBitForBit) {
  // 600 steps x 2 channels per entity: 400 entities are 480,000 series steps,
  // so the level reads as 8 chunks of about 2^16 steps.
  Rng rng(5);
  std::vector<RwSeries> level = MakeEntities(400, 600);
  for (size_t e = 0; e < level.size(); ++e) {
    if (e % 7 == 3) {
      continue;  // idle: no P2A sample, a zero total
    }
    if (e % 11 == 5) {
      level[e] = level[e - 1];  // ties: equal totals and P2As
      continue;
    }
    FillChannel(level[e].read_bytes, rng);
    if (e % 5 != 0) {
      FillChannel(level[e].write_bytes, rng);  // every fifth entity never writes
    }
  }
  // A series that is all negative zeros, one whose mean is negative, and one
  // whose peak recurs at every step.
  std::fill(level[1].read_bytes.mutable_values().begin(),
            level[1].read_bytes.mutable_values().end(), -0.0);
  level[2].write_bytes[4] = -5e17;
  std::fill(level[6].write_bytes.mutable_values().begin(),
            level[6].write_bytes.mutable_values().end(), 42.0);
  ExpectSameBits(level);

  // One-step series: 70,000 entities, 140,000 steps in 3 chunks, every P2A 1.
  std::vector<RwSeries> one_step = MakeEntities(70000, 1);
  for (size_t e = 0; e < one_step.size(); ++e) {
    if (e % 3 != 0) {
      FillChannel(one_step[e].read_bytes, rng);
      FillChannel(one_step[e].write_bytes, rng);
    }
  }
  ExpectSameBits(one_step);

  // Mixed and empty lengths, as a hand-made level may have.
  std::vector<RwSeries> mixed;
  for (size_t e = 0; e < 300; ++e) {
    mixed.emplace_back(e % 3 == 0 ? 0 : (e % 3 == 1 ? 1 : 600), 1.0);
    FillChannel(mixed.back().read_bytes, rng);
    FillChannel(mixed.back().write_bytes, rng);
  }
  ExpectSameBits(mixed);
  ExpectSameBits({});
}

TEST(SkewnessTest, WindowNormalizedCov) {
  auto entities = MakeEntities(2, 4);
  entities[0].write_bytes[0] = 10.0;
  entities[1].write_bytes[0] = 10.0;
  entities[0].write_bytes[3] = 100.0;
  // First window [0,2): balanced; window [2,4): one-sided.
  EXPECT_NEAR(WindowNormalizedCoV(entities, OpType::kWrite, 0, 2), 0.0, 1e-12);
  EXPECT_NEAR(WindowNormalizedCoV(entities, OpType::kWrite, 2, 4), 1.0, 1e-12);
}

TEST(SkewnessTest, WriteToReadRatio) {
  EXPECT_DOUBLE_EQ(WriteToReadRatio(3.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(WriteToReadRatio(1.0, 3.0), -0.5);
  EXPECT_DOUBLE_EQ(WriteToReadRatio(5.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(WriteToReadRatio(0.0, 5.0), -1.0);
  EXPECT_DOUBLE_EQ(WriteToReadRatio(0.0, 0.0), 0.0);
}

TEST(SkewnessTest, AppSkewnessSharesSumToOne) {
  const Fleet fleet = MakeTinyFleet({{{1}}, {{1}}, {{1}}});
  auto vm_series = MakeEntities(fleet.vms.size(), 2);
  vm_series[0].write_bytes[0] = 10.0;
  vm_series[1].write_bytes[0] = 30.0;
  vm_series[2].read_bytes[0] = 5.0;
  const auto rows = ComputeAppSkewness(fleet, vm_series);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kAppTypeCount));
  double read_share = 0.0;
  double write_share = 0.0;
  for (const AppSkewness& row : rows) {
    read_share += row.traffic_share[0];
    write_share += row.traffic_share[1];
  }
  EXPECT_NEAR(read_share, 1.0, 1e-9);
  EXPECT_NEAR(write_share, 1.0, 1e-9);
}

TEST(SkewnessTest, AppSkewnessGroupsByAppType) {
  Fleet fleet = MakeTinyFleet({{{1}}, {{1}}});
  fleet.vms[0].app = AppType::kBigData;
  fleet.vms[1].app = AppType::kDocker;
  auto vm_series = MakeEntities(fleet.vms.size(), 1);
  vm_series[0].write_bytes[0] = 10.0;
  vm_series[1].write_bytes[0] = 30.0;
  const auto rows = ComputeAppSkewness(fleet, vm_series);
  EXPECT_NEAR(rows[static_cast<int>(AppType::kBigData)].traffic_share[1], 0.25, 1e-9);
  EXPECT_NEAR(rows[static_cast<int>(AppType::kDocker)].traffic_share[1], 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(rows[static_cast<int>(AppType::kWebApp)].traffic_share[1], 0.0);
}

}  // namespace
}  // namespace ebs
