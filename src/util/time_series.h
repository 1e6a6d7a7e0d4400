// Fixed-step time series container for per-second traffic processes.

#ifndef SRC_UTIL_TIME_SERIES_H_
#define SRC_UTIL_TIME_SERIES_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ebs {

// A uniformly-sampled series of doubles. Index i covers time
// [i*step_seconds, (i+1)*step_seconds).
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(size_t length, double step_seconds = 1.0, double fill = 0.0);
  TimeSeries(std::vector<double> values, double step_seconds);

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double step_seconds() const { return step_seconds_; }

  double& operator[](size_t i) { return values_[i]; }
  double operator[](size_t i) const { return values_[i]; }

  std::span<const double> values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  // Element-wise addition; other must have the same step. Throws
  // std::invalid_argument, adding nothing, unless it has the same length.
  void Accumulate(const TimeSeries& other);
  void Scale(double factor);

  double SumAll() const;
  double MeanAll() const;
  double MaxAll() const;
  double PeakToAverage() const;

  // Re-buckets into windows of `factor` steps (summing); the tail partial
  // window is kept. factor must be >= 1.
  TimeSeries Downsample(size_t factor) const;

  // Contiguous slice [begin, end).
  TimeSeries Slice(size_t begin, size_t end) const;

 private:
  std::vector<double> values_;
  double step_seconds_ = 1.0;
};

}  // namespace ebs

#endif  // SRC_UTIL_TIME_SERIES_H_
