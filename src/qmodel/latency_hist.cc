#include "src/qmodel/latency_hist.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace ebs {
namespace qmodel {

size_t LatencyHist::BucketOf(uint64_t value_us) {
  if (value_us < kSubBuckets) {
    return static_cast<size_t>(value_us);
  }
  int width = static_cast<int>(std::bit_width(value_us));  // value in [2^(width-1), 2^width)
  if (width > kMaxOctaveBits) {
    width = kMaxOctaveBits;
    value_us = (1ULL << kMaxOctaveBits) - 1;
  }
  const int shift = width - 1 - kSubBucketBits;  // >= 0 since width > kSubBucketBits
  const uint64_t sub = (value_us >> shift) & (kSubBuckets - 1);
  const size_t octave = static_cast<size_t>(width - kSubBucketBits);
  return octave * kSubBuckets + static_cast<size_t>(sub);
}

double LatencyHist::BucketLow(size_t bucket) {
  if (bucket < kSubBuckets) {
    return static_cast<double>(bucket);
  }
  const size_t octave = bucket / kSubBuckets;
  const uint64_t sub = bucket % kSubBuckets;
  const int shift = static_cast<int>(octave) - 1;
  return static_cast<double>(((kSubBuckets + sub) << shift));
}

double LatencyHist::BucketHigh(size_t bucket) {
  if (bucket < kSubBuckets) {
    return static_cast<double>(bucket + 1);
  }
  const size_t octave = bucket / kSubBuckets;
  const int shift = static_cast<int>(octave) - 1;
  return BucketLow(bucket) + static_cast<double>(1ULL << shift);
}

void LatencyHist::Record(double us) {
  if (std::isnan(us)) {
    throw std::invalid_argument("qmodel: NaN latency sample");
  }
  us = std::max(us, 0.0);
  // The cast is defined only below 2^64 (+inf included); every sample past
  // the last octave lands in the last bucket anyway.
  constexpr uint64_t kTop = 1ULL << kMaxOctaveBits;
  const uint64_t quantized = us < static_cast<double>(kTop) ? static_cast<uint64_t>(us) : kTop;
  ++buckets_[BucketOf(quantized)];
  ++count_;
  sum_us_ += us;
  max_us_ = std::max(max_us_, us);
}

void LatencyHist::Accumulate(const LatencyHist& other) {
  for (size_t b = 0; b < kBucketCount; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_us_ += other.sum_us_;
  max_us_ = std::max(max_us_, other.max_us_);
}

double LatencyHist::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;  // 1-based
  double seen = 0.0;
  for (size_t b = 0; b < kBucketCount; ++b) {
    const double here = static_cast<double>(buckets_[b]);
    if (here == 0.0) {
      continue;
    }
    if (seen + here >= rank) {
      // Linear interpolation within [lo, hi): position of the rank among the
      // bucket's samples, capped by the true observed max.
      const double lo = BucketLow(b);
      const double hi = BucketHigh(b);
      const double frac = (rank - seen) / here;
      return std::min(lo + frac * (hi - lo), max_us_);
    }
    seen += here;
  }
  return max_us_;
}

uint64_t LatencyHist::Fingerprint() const {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const uint64_t bucket : buckets_) {
    mix(&bucket, sizeof(bucket));
  }
  mix(&count_, sizeof(count_));
  mix(&sum_us_, sizeof(sum_us_));
  mix(&max_us_, sizeof(max_us_));
  return h;
}

}  // namespace qmodel
}  // namespace ebs
