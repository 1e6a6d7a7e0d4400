// Self-observability primitives: a process-wide MetricRegistry of counters,
// gauges and fixed-bucket histograms, plus a scoped RAII timer.
//
// Design constraints (see DESIGN.md "Observability layer"):
//  - Compiled-in but near-zero-cost when disabled: every metric holds a
//    pointer to its registry's enabled flag; a disabled Record()/Add() is a
//    relaxed load and a predictable branch, and ScopedTimer skips the clock
//    reads entirely.
//  - Instrumentation must never perturb simulation output: metrics only
//    observe wall-clock time and counts, never RNG state or datasets. The
//    streaming-vs-batch fingerprint test runs with the registry enabled to
//    lock this in.
//  - Hot-path increments are write-contention-free: counters stripe across
//    cache-line-padded atomic slots indexed by a per-thread id; histograms
//    use relaxed per-bucket atomics.
//
// Usage:
//   auto& reg = obs::MetricRegistry::Global();
//   obs::Counter* dropped = reg.GetCounter("replay.batches_dropped");
//   obs::ObsHistogram* gen = reg.GetTimer("replay.shard0.generate");
//   { obs::ScopedTimer t(gen); ExpensiveStep(); }
//   dropped->Increment();
//   obs::RunReport report = reg.Snapshot();

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/thread_annotations.h"

namespace ebs {
namespace obs {

// Monotonically increasing counter, striped across cache-line-padded slots so
// concurrent writers (e.g. replay shards) do not bounce one cache line.
class Counter {
 public:
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void Add(uint64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    slots_[ThreadSlot()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  // Sum over all stripes. Cheap enough for snapshots; not a hot-path call.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Slot& slot : slots_) {
      slot.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kStripes = 16;  // power of two
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  static size_t ThreadSlot();

  const std::atomic<bool>* enabled_;
  Slot slots_[kStripes];
};

// Last-write-wins instantaneous value (queue depth, config knobs, ...).
class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void Set(double value) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    value_.store(value, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram over non-negative integer samples (nanoseconds for
// timers, plain counts for occupancy). Bucket b holds samples whose bit width
// is b, i.e. value in [2^(b-1), 2^b); the geometric bucket midpoint drives
// the approximate percentiles in snapshots. All mutation is relaxed-atomic.
class ObsHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  ObsHistogram(const std::atomic<bool>* enabled, std::string unit)
      : enabled_(enabled), unit_(std::move(unit)) {}

  void Record(uint64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }
  const std::string& unit() const { return unit_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;
  // Approximate percentile (q in [0,1]) from the bucket geometric midpoints.
  double Percentile(double q) const;

  void Reset();

 private:
  static size_t BucketOf(uint64_t value);

  const std::atomic<bool>* enabled_;
  std::string unit_;
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// RAII wall-clock timer feeding a nanosecond histogram. Skips the clock reads
// entirely while the owning registry is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(ObsHistogram* hist) : hist_(hist) {
    if (hist_ != nullptr && !hist_->enabled()) {
      hist_ = nullptr;  // disabled: no clock reads at all
    }
    if (hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { Stop(); }

  // Records the elapsed time once; further calls (and the destructor) no-op.
  void Stop() {
    if (hist_ == nullptr) {
      return;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    hist_ = nullptr;
  }

 private:
  ObsHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// One metric in a snapshot; `kind` is "counter", "gauge" or "histogram".
struct MetricSnapshot {
  std::string name;
  std::string kind;
  std::string unit;      // histograms only ("ns", "count", ...)
  double value = 0.0;    // counter total or gauge value
  uint64_t count = 0;    // histogram sample count
  double sum = 0.0;      // histogram sample sum
  double mean = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// Point-in-time dump of a registry, sorted by metric name.
struct RunReport {
  std::vector<MetricSnapshot> metrics;
};

// Name-addressed collection of metrics. Get* registers on first use and
// returns a stable pointer (call sites cache it outside hot loops); lookups
// take a mutex, recorded samples never do.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry the shipped instrumentation points at. Disabled
  // until set_enabled(true) (e.g. via InitRunReportFromEnv).
  static MetricRegistry& Global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  Counter* GetCounter(std::string_view name) EBS_EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name) EBS_EXCLUDES(mu_);
  // Nanosecond histogram for ScopedTimer.
  ObsHistogram* GetTimer(std::string_view name) { return GetHistogram(name, "ns"); }
  ObsHistogram* GetHistogram(std::string_view name, std::string_view unit = "count")
      EBS_EXCLUDES(mu_);

  // Zeroes every registered metric (registrations persist).
  void Reset() EBS_EXCLUDES(mu_);

  RunReport Snapshot() const EBS_EXCLUDES(mu_);

 private:
  template <typename T>
  using ByName = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  // Every Add/Record on every thread reads this flag, so it sits alone on
  // its cache line: neither the lock below nor a neighbouring heap object
  // shares it.
  alignas(64) std::atomic<bool> enabled_{false};
  // One mutex for all three maps: Get* runs while a call site is set up,
  // never per record. The metrics live behind unique_ptr, so the pointers
  // Get* hands out stay valid as the maps grow, and the metrics synchronize
  // themselves (striped/relaxed atomics), so recording through a pointer
  // never takes the lock. The maps iterate in name order, so Snapshot and
  // Reset never see a hash order.
  alignas(64) mutable util::Mutex mu_;
  ByName<Counter> counters_ EBS_GUARDED_BY(mu_);
  ByName<Gauge> gauges_ EBS_GUARDED_BY(mu_);
  ByName<ObsHistogram> histograms_ EBS_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace ebs

#endif  // SRC_OBS_METRICS_H_
