#include "src/util/time_series.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/util/stats.h"

namespace ebs {

TimeSeries::TimeSeries(size_t length, double step_seconds, double fill)
    : values_(length, fill), step_seconds_(step_seconds) {}

TimeSeries::TimeSeries(std::vector<double> values, double step_seconds)
    : values_(std::move(values)), step_seconds_(step_seconds) {}

void TimeSeries::Accumulate(const TimeSeries& other) {
  if (other.size() != size()) {
    throw std::invalid_argument("TimeSeries::Accumulate: the series differ in length");
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    values_[i] += other.values_[i];
  }
}

void TimeSeries::Scale(double factor) {
  for (double& v : values_) {
    v *= factor;
  }
}

double TimeSeries::SumAll() const { return Sum(values_); }

double TimeSeries::MeanAll() const { return Mean(values_); }

double TimeSeries::MaxAll() const {
  if (values_.empty()) {
    return 0.0;
  }
  return *std::max_element(values_.begin(), values_.end());
}

double TimeSeries::PeakToAverage() const { return ebs::PeakToAverage(values_); }

TimeSeries TimeSeries::Downsample(size_t factor) const {
  assert(factor >= 1);
  const size_t out_len = (values_.size() + factor - 1) / factor;
  TimeSeries out(out_len, step_seconds_ * static_cast<double>(factor));
  for (size_t i = 0; i < values_.size(); ++i) {
    out[i / factor] += values_[i];
  }
  return out;
}

TimeSeries TimeSeries::Slice(size_t begin, size_t end) const {
  assert(begin <= end && end <= values_.size());
  return TimeSeries(std::vector<double>(values_.begin() + static_cast<ptrdiff_t>(begin),
                                        values_.begin() + static_cast<ptrdiff_t>(end)),
                    step_seconds_);
}

}  // namespace ebs
