// Tests for Histogram, EmpiricalCdf, TimeSeries and TablePrinter.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/table.h"
#include "src/util/time_series.h"

namespace ebs {
namespace {

TEST(HistogramTest, BinsValues) {
  Histogram hist(0.0, 10.0, 5);
  hist.Add(1.0);   // bin 0
  hist.Add(3.0);   // bin 1
  hist.Add(9.99);  // bin 4
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.count(1), 1u);
  EXPECT_EQ(hist.count(4), 1u);
  EXPECT_EQ(hist.total(), 3u);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram hist(0.0, 1.0, 2);
  hist.Add(-5.0);
  hist.Add(42.0);
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.count(1), 1u);
}

TEST(HistogramTest, RejectsNanAndClampsInfinities) {
  // Regression: NaN used to flow through std::clamp (which returns NaN) into
  // a size_t cast — UB that could index anywhere. NaN is now counted as
  // dropped; infinities clamp into the edge bins like any other
  // out-of-range value.
  Histogram hist(0.0, 1.0, 4);
  hist.Add(std::numeric_limits<double>::quiet_NaN());
  hist.Add(std::numeric_limits<double>::signaling_NaN());
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_EQ(hist.dropped_nan(), 2u);

  hist.Add(std::numeric_limits<double>::infinity());
  hist.Add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.total(), 2u);
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.count(3), 1u);

  hist.Add(0.5);
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.dropped_nan(), 2u);
}

TEST(HistogramTest, FractionsSumToOne) {
  Histogram hist(0.0, 1.0, 4);
  for (int i = 0; i < 100; ++i) {
    hist.Add(static_cast<double>(i % 10) / 10.0);
  }
  double total = 0.0;
  for (size_t b = 0; b < hist.bin_count(); ++b) {
    total += hist.Fraction(b);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HistogramTest, EmptyFractionIsZero) {
  Histogram hist(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(hist.Fraction(0), 0.0);
}

TEST(HistogramTest, BinBoundsAndLabel) {
  Histogram hist(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(hist.BinLow(2), 4.0);
  EXPECT_DOUBLE_EQ(hist.BinHigh(2), 6.0);
  EXPECT_EQ(hist.BinLabel(0), "[0.00,2.00)");
}

TEST(EmpiricalCdfTest, AtAndQuantile) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.At(100.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.5);
}

TEST(EmpiricalCdfTest, UnsortedInput) {
  EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.At(2.5), 0.5);
}

TEST(EmpiricalCdfTest, CurveIsMonotonic) {
  EmpiricalCdf cdf({5.0, 1.0, 9.0, 3.0, 7.0});
  const auto curve = cdf.Curve(11);
  ASSERT_EQ(curve.size(), 11u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
}

TEST(EmpiricalCdfTest, Empty) {
  EmpiricalCdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.At(1.0), 0.0);
  EXPECT_TRUE(cdf.Curve(5).empty());
}

TEST(TimeSeriesTest, ConstructionAndAccess) {
  TimeSeries series(5, 2.0, 1.5);
  EXPECT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series.step_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(series[3], 1.5);
  series[3] = 7.0;
  EXPECT_DOUBLE_EQ(series[3], 7.0);
}

TEST(TimeSeriesTest, AccumulateAndScale) {
  TimeSeries a({1.0, 2.0, 3.0}, 1.0);
  const TimeSeries b({10.0, 20.0, 30.0}, 1.0);
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a[0], 11.0);
  EXPECT_DOUBLE_EQ(a[2], 33.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a[1], 11.0);
}

TEST(TimeSeriesTest, AccumulateRejectsAnotherLengthAndAddsNothing) {
  // Checked in every build, not only with assertions on: a shorter argument
  // used to be read past its end.
  const std::vector<double> before = {1.0, 2.0, 3.0};
  TimeSeries series(before, 1.0);
  for (const size_t length : {size_t{0}, size_t{2}, size_t{4}, size_t{600}}) {
    EXPECT_THROW(series.Accumulate(TimeSeries(length, 1.0, 5.0)), std::invalid_argument)
        << length;
    EXPECT_EQ(std::vector<double>(series.values().begin(), series.values().end()), before)
        << length;
  }
  TimeSeries empty;
  EXPECT_THROW(empty.Accumulate(series), std::invalid_argument);
  EXPECT_TRUE(empty.empty());
  empty.Accumulate(TimeSeries());  // two empty series have one length
  EXPECT_TRUE(empty.empty());
}

TEST(TimeSeriesTest, Aggregates) {
  const TimeSeries series({1.0, 3.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(series.SumAll(), 6.0);
  EXPECT_DOUBLE_EQ(series.MeanAll(), 2.0);
  EXPECT_DOUBLE_EQ(series.MaxAll(), 3.0);
  EXPECT_DOUBLE_EQ(series.PeakToAverage(), 1.5);
}

TEST(TimeSeriesTest, DownsampleSums) {
  const TimeSeries series({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0);
  const TimeSeries down = series.Downsample(2);
  ASSERT_EQ(down.size(), 3u);
  EXPECT_DOUBLE_EQ(down[0], 3.0);
  EXPECT_DOUBLE_EQ(down[1], 7.0);
  EXPECT_DOUBLE_EQ(down[2], 5.0);  // partial tail window kept
  EXPECT_DOUBLE_EQ(down.step_seconds(), 2.0);
}

TEST(TimeSeriesTest, DownsamplePartialTailWindow) {
  // The tail window may cover fewer than `factor` steps; it must still be
  // emitted (as the sum of the remaining steps), and the output step width is
  // factor * input step even for that short window.
  const TimeSeries series({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, 0.5);
  const TimeSeries by_three = series.Downsample(3);
  ASSERT_EQ(by_three.size(), 3u);
  EXPECT_DOUBLE_EQ(by_three[0], 6.0);
  EXPECT_DOUBLE_EQ(by_three[1], 15.0);
  EXPECT_DOUBLE_EQ(by_three[2], 7.0);  // one-step tail
  EXPECT_DOUBLE_EQ(by_three.step_seconds(), 1.5);

  // Factor beyond the series length: everything lands in one partial window.
  const TimeSeries by_ten = series.Downsample(10);
  ASSERT_EQ(by_ten.size(), 1u);
  EXPECT_DOUBLE_EQ(by_ten[0], 28.0);
  EXPECT_DOUBLE_EQ(by_ten.step_seconds(), 5.0);

  // Factor 1 is the identity (modulo a fresh buffer).
  const TimeSeries identity = series.Downsample(1);
  ASSERT_EQ(identity.size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(identity[i], series[i]);
  }
}

TEST(TimeSeriesTest, Slice) {
  const TimeSeries series({1.0, 2.0, 3.0, 4.0}, 1.0);
  const TimeSeries slice = series.Slice(1, 3);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_DOUBLE_EQ(slice[0], 2.0);
  EXPECT_DOUBLE_EQ(slice[1], 3.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"A", "Longer"});
  table.AddRow({"x", "y"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| A | Longer |"), std::string::npos);
  EXPECT_NE(out.find("| x | y      |"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter table({"A", "B", "C"});
  table.AddRow({"only"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NE(table.ToString().find("only"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::FmtPercent(0.1234, 1), "12.3%");
  EXPECT_EQ(TablePrinter::FmtPair(1.0, 2.5, 1), "1.0 / 2.5");
}

TEST(TablePrinterTest, BannerFormat) {
  std::ostringstream oss;
  PrintBanner(oss, "Title");
  EXPECT_EQ(oss.str(), "\n== Title ==\n");
}

}  // namespace
}  // namespace ebs
