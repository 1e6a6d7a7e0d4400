// Log-linear latency histogram for the discrete-event queueing backend.
//
// HDR-style layout: 8 sub-buckets per power-of-two octave, so relative
// resolution stays ~12.5% across the whole range (microseconds to hours)
// while the footprint stays a fixed few KiB. Percentile queries interpolate
// linearly within the landing bucket, which keeps P99/P999 readouts smooth
// enough to compare across runs (the coarse power-of-two-only readout was the
// known weakness of obs::ObsHistogram before its interpolation fix).
//
// Everything is plain integer state mutated single-threaded on the replay
// merge thread (or the batch caller) — deterministic, mergeable, and
// fingerprintable byte for byte.

#ifndef SRC_QMODEL_LATENCY_HIST_H_
#define SRC_QMODEL_LATENCY_HIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ebs {
namespace qmodel {

class LatencyHist {
 public:
  // 3 sub-bucket bits -> 8 linear sub-buckets per octave.
  static constexpr int kSubBucketBits = 3;
  static constexpr uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  // Values are microseconds; 2^50 us is ~35 years, far past any simulated
  // latency. Larger samples clamp into the last bucket.
  static constexpr int kMaxOctaveBits = 50;
  static constexpr size_t kBucketCount =
      kSubBuckets + static_cast<size_t>(kMaxOctaveBits - kSubBucketBits) * kSubBuckets;

  LatencyHist() : buckets_(kBucketCount, 0) {}

  // Records one latency sample: negative values clamp to 0, values past the
  // last octave (+inf included) land in the last bucket, and NaN throws
  // std::invalid_argument.
  void Record(double us);
  // Adds another histogram's samples (bucket-wise).
  void Accumulate(const LatencyHist& other);

  uint64_t count() const { return count_; }
  double sum_us() const { return sum_us_; }
  double max_us() const { return max_us_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_us_ / static_cast<double>(count_); }

  // Quantile q in [0,1] with within-bucket linear interpolation, capped by
  // the observed maximum. Empty histogram -> 0.
  double Percentile(double q) const;

  // FNV-1a over the bucket counts and scalar tallies: equal fingerprints mean
  // identical recorded multisets (at bucket resolution) in identical amounts.
  uint64_t Fingerprint() const;

  const std::vector<uint64_t>& buckets() const { return buckets_; }

  // Bucket boundaries of bucket index b: samples land in [BucketLow(b),
  // BucketHigh(b)). Exposed for the interpolation unit tests.
  static double BucketLow(size_t bucket);
  static double BucketHigh(size_t bucket);
  static size_t BucketOf(uint64_t value_us);

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_us_ = 0.0;
  double max_us_ = 0.0;
};

}  // namespace qmodel
}  // namespace ebs

#endif  // SRC_QMODEL_LATENCY_HIST_H_
