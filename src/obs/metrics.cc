#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace ebs {
namespace obs {

namespace {

// Monotonic per-thread index; threads map to counter stripes round-robin.
size_t NextThreadIndex() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// The metric registered under `name`, created by make() when absent.
template <typename T, typename Make>
T* FindOrInsert(std::map<std::string, std::unique_ptr<T>, std::less<>>& by_name,
                std::string_view name, Make make) {
  auto it = by_name.lower_bound(name);
  if (it == by_name.end() || it->first != name) {
    it = by_name.emplace_hint(it, std::string(name), make());
  }
  return it->second.get();
}

}  // namespace

size_t Counter::ThreadSlot() {
  thread_local const size_t slot = NextThreadIndex() % kStripes;
  return slot;
}

double ObsHistogram::Mean() const {
  const uint64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(sum()) / static_cast<double>(n);
}

size_t ObsHistogram::BucketOf(uint64_t value) {
  // Bucket 0 holds value 0; bucket b>0 holds [2^(b-1), 2^b).
  return static_cast<size_t>(std::bit_width(value));
}

double ObsHistogram::Percentile(double q) const {
  const uint64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n - 1) + 1.0;  // 1-based
  double seen = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double here = static_cast<double>(buckets_[b].load(std::memory_order_relaxed));
    if (here == 0.0) {
      continue;
    }
    if (seen + here >= rank) {
      if (b == 0) {
        return 0.0;
      }
      // Within-bucket linear interpolation across [2^(b-1), 2^b), capped by
      // the observed max. Power-of-two buckets alone are far too coarse for a
      // defensible P99/P999 readout: the bucket midpoint can be off by ~41%
      // (a full half-octave); interpolating by the rank's position among the
      // bucket's samples tracks uniform-ish occupancy to a few percent.
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double frac = (rank - seen) / here;
      return std::min(lo + frac * lo, static_cast<double>(max()));
    }
    seen += here;
  }
  return static_cast<double>(max());
}

void ObsHistogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return *registry;
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  util::MutexLock lock(&mu_);
  return FindOrInsert(counters_, name, [this] { return std::make_unique<Counter>(&enabled_); });
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  util::MutexLock lock(&mu_);
  return FindOrInsert(gauges_, name, [this] { return std::make_unique<Gauge>(&enabled_); });
}

ObsHistogram* MetricRegistry::GetHistogram(std::string_view name, std::string_view unit) {
  util::MutexLock lock(&mu_);
  return FindOrInsert(histograms_, name, [this, unit] {
    return std::make_unique<ObsHistogram>(&enabled_, std::string(unit));
  });
}

void MetricRegistry::Reset() {
  util::MutexLock lock(&mu_);
  for (const auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (const auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (const auto& [name, hist] : histograms_) {
    hist->Reset();
  }
}

RunReport MetricRegistry::Snapshot() const {
  RunReport report;
  util::MutexLock lock(&mu_);
  report.metrics.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = "counter";
    snap.value = static_cast<double>(counter->Value());
    report.metrics.push_back(std::move(snap));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = "gauge";
    snap.value = gauge->Value();
    report.metrics.push_back(std::move(snap));
  }
  for (const auto& [name, hist] : histograms_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = "histogram";
    snap.unit = hist->unit();
    snap.count = hist->count();
    snap.sum = static_cast<double>(hist->sum());
    snap.mean = hist->Mean();
    snap.max = static_cast<double>(hist->max());
    snap.p50 = hist->Percentile(0.50);
    snap.p90 = hist->Percentile(0.90);
    snap.p99 = hist->Percentile(0.99);
    snap.p999 = hist->Percentile(0.999);
    report.metrics.push_back(std::move(snap));
  }
  // Kinds share one name order; a name held by two kinds keeps the order
  // counter, gauge, histogram.
  std::stable_sort(report.metrics.begin(), report.metrics.end(),
                   [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return report;
}

}  // namespace obs
}  // namespace ebs
