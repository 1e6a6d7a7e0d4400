// Perf ledger: runs one benchmark workload through the public API of the
// ebs-skew libraries and prints one JSON object per line on stdout.
//
// Every timing is taken from outside the libraries. An untraced run times the
// facade end to end; a traced run rebuilds the facade's pipeline from public
// parts and times each layer at its boundary (a forwarding sink around every
// replay sink, a clock around every batch call). run.py builds this binary,
// reduces its lines to the benchmark's metrics and checks every run's
// fingerprints against pins.json.
//
//   ledger --workload closed_loop --workload-seed 2001 --seconds 30 --trace 0
//   ledger --scan paper_batch --from 2001 --to 2100   # record count per seed

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/skewness.h"
#include "src/cache/hotspot.h"
#include "src/control/plane.h"
#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/core/validate.h"
#include "src/fault/driver.h"
#include "src/fault/schedule.h"
#include "src/qmodel/queue_model.h"
#include "src/qmodel/sink.h"
#include "src/replay/engine.h"
#include "src/replay/parallel_generate.h"
#include "src/replay/sinks.h"
#include "src/scenario/builders.h"
#include "src/throttle/throttle.h"
#include "src/trace/aggregate.h"
#include "src/trace/store.h"
#include "src/workload/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Since(Clock::time_point start) { return Seconds(Clock::now() - start); }

// User + system CPU of the whole process (every thread), in seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------------

// FNV-1a over little-endian words, so the value does not depend on the host.
class Fnv {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Series(const ebs::TimeSeries& series) {
    U64(series.size());
    for (const double v : series.values()) {
      F64(v);
    }
  }
  void Rw(const ebs::RwSeries& s) {
    Series(s.read_bytes);
    Series(s.write_bytes);
    Series(s.read_ops);
    Series(s.write_ops);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t RollupFnv(const std::vector<ebs::RwSeries>& level) {
  Fnv fnv;
  fnv.U64(level.size());
  for (const ebs::RwSeries& s : level) {
    fnv.Rw(s);
  }
  return fnv.value();
}

// The outputs a run is checked on. run.py compares each against pins.json;
// a field a workload does not produce stays absent from its JSON.
struct Fingerprints {
  std::map<std::string, uint64_t> values;

  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, value] : values) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":\"%016llx\"", out.size() > 1 ? "," : "",
                    name.c_str(), static_cast<unsigned long long>(value));
      out += buf;
    }
    return out + "}";
  }
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Kind { kClosedLoop, kPaperBatch };

struct Workload {
  ebs::SimulationConfig config;
  size_t cache_min_records = 200;  // paper_batch: VDs the cache replay covers
  size_t vds = 0;                  // fleet size, for the manifest
};

Kind ParseKind(const std::string& name) {
  if (name == "closed_loop") return Kind::kClosedLoop;
  if (name == "paper_batch") return Kind::kPaperBatch;
  throw std::invalid_argument("unknown workload: " + name);
}

// Config assembly: everything before the first timed run. The fleet is built
// once here — closed_loop derives its fault schedule from it, and every
// workload validates its config before timing anything.
Workload MakeWorkload(Kind kind, uint64_t seed, bool tiny, double* build_fleet_s) {
  Workload w;
  ebs::SimulationConfig& config = w.config;
  config = ebs::DcPreset(1);
  config.workload.seed = seed;
  if (tiny) {
    config.fleet.user_count = 16;
    config.workload.window_steps = 60;
    w.cache_min_records = 20;
  }
  const Clock::time_point fleet_start = Clock::now();
  const ebs::Fleet fleet = ebs::BuildFleet(config.fleet);
  *build_fleet_s = Since(fleet_start);
  w.vds = fleet.vds.size();
  if (kind == Kind::kClosedLoop) {
    const size_t steps = config.workload.window_steps;
    config.workload.scenario = ebs::scenario::DiurnalBurstScenario(steps, config.fleet.user_count);
    config.workload.faults = ebs::CrashHeavySchedule(fleet, steps, 7);
    config.queueing.enabled = true;
    config.queueing.retry = config.workload.faults.retry;
    config.control.enabled = true;
    config.control.period_steps = 10;
    config.control.exporter_threshold = 1.1;
    config.control.max_migrations_per_period = 32;
  } else {
    config.queueing.enabled = true;
  }
  const std::string problem = ebs::ValidateSimulationConfig(config);
  if (!problem.empty()) {
    throw std::invalid_argument("invalid workload config: " + problem);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Streaming pipeline.
// ---------------------------------------------------------------------------

// Registered last on the facade: stamps each OnStepComplete, so consecutive
// stamps bound the wall time of one simulated second.
class StepProbeSink : public ebs::ReplaySink {
 public:
  void OnStart(const ebs::Fleet&, size_t window_steps, double) override {
    stamps_.clear();
    stamps_.reserve(window_steps);
  }
  void OnStepComplete(const ebs::ReplayStepView&) override { stamps_.push_back(Clock::now()); }

  std::vector<double> StepMillis() const {
    std::vector<double> out;
    for (size_t i = 1; i < stamps_.size(); ++i) {
      out.push_back(1e3 * Seconds(stamps_[i] - stamps_[i - 1]));
    }
    return out;
  }

 private:
  std::vector<Clock::time_point> stamps_;
};

// Forwarding sink that charges the wall time of every callback to its inner
// sink. Observer only: the inner sink sees exactly the calls it would see
// unwrapped, in the same order.
class TimedSink : public ebs::ReplaySink {
 public:
  explicit TimedSink(ebs::ReplaySink* inner) : inner_(inner) {}
  // The engine keeps a pointer to every registered sink.
  TimedSink(const TimedSink&) = delete;
  TimedSink& operator=(const TimedSink&) = delete;

  void OnStart(const ebs::Fleet& fleet, size_t window_steps, double step_seconds) override {
    const Clock::time_point t = Clock::now();
    inner_->OnStart(fleet, window_steps, step_seconds);
    other_ += Clock::now() - t;
  }
  void OnEvent(const ebs::ReplayEvent& event) override {
    const Clock::time_point t = Clock::now();
    inner_->OnEvent(event);
    event_ += Clock::now() - t;
  }
  void OnStepComplete(const ebs::ReplayStepView& view) override {
    const Clock::time_point t = Clock::now();
    inner_->OnStepComplete(view);
    step_ += Clock::now() - t;
  }
  void OnFinish() override {
    const Clock::time_point t = Clock::now();
    inner_->OnFinish();
    other_ += Clock::now() - t;
  }

  double event_s() const { return Seconds(event_); }
  double step_s() const { return Seconds(step_); }
  double total_s() const { return Seconds(event_ + step_ + other_); }

 private:
  ebs::ReplaySink* inner_;
  Clock::duration event_{};
  Clock::duration step_{};
  Clock::duration other_{};
};

struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t events = 0;
  Fingerprints fp;
  std::vector<double> step_ms;
};

void AddStreamingFingerprints(uint64_t records, const std::vector<ebs::RwSeries>& vd,
                              const std::vector<ebs::RwSeries>& bs,
                              const ebs::qmodel::QueueModelResult* queue,
                              const ebs::control::DecisionLog* log, Fingerprints* fp) {
  fp->values["records"] = records;
  fp->values["rollup_vd"] = RollupFnv(vd);
  fp->values["rollup_bs"] = RollupFnv(bs);
  if (queue != nullptr) {
    fp->values["qmodel"] = queue->Fingerprint();
  }
  if (log != nullptr) {
    fp->values["decisions"] = log->Fingerprint();
  }
}

// One untraced run of the streaming facade. The timer starts at construction
// and stops after every output the run checks has been read, so work a facade
// defers to first access is still counted.
RunResult RunStreamingFacade(const Workload& w, size_t workers) {
  RunResult r;
  StepProbeSink probe;
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  ebs::StreamingSimulation sim(w.config, {.worker_threads = workers});
  sim.AddSink(&probe);
  sim.Run();
  const auto& vd = sim.VdSeries();
  sim.VmSeries();
  sim.UserSeries();
  sim.WtSeries();
  sim.CnSeries();
  const auto& bs = sim.BsSeries();
  sim.SnSeries();
  sim.SegSeries();
  const ebs::qmodel::QueueModelResult* queue = sim.queue_result();
  const ebs::control::DecisionLog* log = sim.control_log();
  const uint64_t records = sim.traces().records.size();
  r.wall_s = Since(start);
  r.cpu_s = CpuSeconds() - cpu0;
  r.events = sim.stats().events;
  r.step_ms = probe.StepMillis();
  AddStreamingFingerprints(records, vd, bs, queue, log, &r.fp);
  return r;
}

using Layers = std::map<std::string, double>;

// The facade's chain rebuilt from public parts, each sink wrapped in a
// TimedSink, in the facade's registration order: collector, rollups, qmodel,
// then the control plane's lending -> cache -> wt-cov -> control.
RunResult RunStreamingTraced(const Workload& w, size_t workers, Layers* layers) {
  RunResult r;
  const ebs::SimulationConfig& config = w.config;
  const Clock::time_point start = Clock::now();
  const ebs::Fleet fleet = ebs::BuildFleet(config.fleet);
  ebs::ReplayEngine engine(fleet, config.workload, {.worker_threads = workers});
  ebs::TraceCollectorSink collector(config.workload.sampling_rate);
  ebs::RollupAggregatorSink rollups;
  std::optional<ebs::qmodel::QueueModelSink> qmodel;
  std::optional<ebs::control::ControlPlane> plane;
  std::deque<TimedSink> timed;  // deque: growth keeps the registered addresses
  timed.emplace_back(&collector);
  timed.emplace_back(&rollups);
  TimedSink* qmodel_timed = nullptr;
  if (config.queueing.enabled) {
    qmodel.emplace(config.queueing, config.workload.sampling_rate);
    qmodel_timed = &timed.emplace_back(&*qmodel);
  }
  const size_t plane_first = timed.size();
  if (config.control.enabled) {
    plane.emplace(fleet, config.control, qmodel.has_value() ? &*qmodel : nullptr);
    plane->set_fault_driver(engine.fault_driver());
    for (ebs::ReplaySink* sink : plane->Sinks()) {
      timed.emplace_back(sink);
    }
  }
  for (TimedSink& sink : timed) {
    engine.AddSink(&sink);
  }
  const Clock::time_point run_start = Clock::now();
  ebs::WorkloadResult result = engine.Run();
  const double engine_s = Since(run_start);
  result.traces = collector.TakeDataset();
  std::vector<ebs::RwSeries> seg;
  result.metrics.segment_series.ForEachSorted(
      [&seg](uint32_t, const ebs::RwSeries& series) { seg.push_back(series); });
  const Clock::time_point materialize_start = Clock::now();
  const ebs::StreamingAggregator& agg = rollups.aggregator();
  const auto& vd = agg.vd();
  agg.vm();
  agg.user();
  agg.wt();
  agg.cn();
  const auto& bs = agg.bs();
  agg.sn();
  const double materialize_s = Since(materialize_start);
  r.wall_s = Since(start);
  r.events = engine.stats().events;

  const double steps = static_cast<double>(config.workload.window_steps);
  const double events = static_cast<double>(r.events);
  double sinks_s = 0.0;
  for (const TimedSink& sink : timed) {
    sinks_s += sink.total_s();
  }
  const TimedSink& rollup = timed[1];
  Layers& l = *layers;
  l["trace.rollup_step_ms"] = 1e3 * rollup.step_s() / steps;
  l["trace.rollup_s"] = rollup.total_s() + materialize_s;
  l["trace.rollup_share"] = Ratio(l["trace.rollup_s"], r.wall_s);
  l["replay.engine_self_s"] = engine_s - sinks_s;
  l["replay.collector_event_ns"] = 1e9 * Ratio(timed[0].event_s(), events);
  l["replay.events"] = events;
  if (qmodel_timed != nullptr) {
    l["qmodel.sink_event_ns"] = 1e9 * Ratio(qmodel_timed->total_s(), events);
  }
  if (plane.has_value()) {
    const TimedSink& lending = timed[plane_first];
    const TimedSink& cache = timed[plane_first + 1];
    const TimedSink& wt_cov = timed[plane_first + 2];
    const TimedSink& control = timed[plane_first + 3];
    l["throttle.lending_step_ms"] = 1e3 * lending.total_s() / steps;
    l["cache.sink_event_ns"] = 1e9 * Ratio(cache.event_s(), events);
    l["cache.sink_hit_ratio"] =
        Ratio(static_cast<double>(plane->cache().total_page_hits()),
              static_cast<double>(plane->cache().total_page_accesses()));
    l["hypervisor.wt_cov_step_ms"] = 1e3 * wt_cov.total_s() / steps;
    l["control.sink_step_ms"] = 1e3 * control.total_s() / steps;
    l["control.decisions"] = static_cast<double>(plane->log().size());
  }
  AddStreamingFingerprints(result.traces.records.size(), vd, bs,
                           qmodel.has_value() ? &qmodel->result() : nullptr,
                           plane.has_value() ? &plane->log() : nullptr, &r.fp);
  return r;
}

// Generation alone: the engine with no sinks, so the merge thread only pops
// and merges what the shards synthesize.
double TimeGenerationOnly(const Workload& w, size_t workers) {
  const ebs::Fleet fleet = ebs::BuildFleet(w.config.fleet);
  const Clock::time_point start = Clock::now();
  ebs::ReplayEngine engine(fleet, w.config.workload, {.worker_threads = workers});
  engine.Run();
  return Since(start);
}

// FaultDriver::Apply over a copy of a fault-free generation's records: the
// per-IO cost of the fault transform the shards pay inline.
double TimeFaultApplyNs(const Workload& w, size_t workers) {
  const ebs::Fleet fleet = ebs::BuildFleet(w.config.fleet);
  ebs::WorkloadConfig healthy = w.config.workload;
  healthy.faults = {};
  const ebs::WorkloadResult clean = ebs::GenerateWorkloadParallel(fleet, healthy, workers);
  std::vector<ebs::TraceRecord> records = clean.traces.records;
  const ebs::FaultDriver driver(fleet, w.config.workload.faults, healthy.window_steps,
                                healthy.step_seconds);
  ebs::FaultStats stats;
  const Clock::time_point start = Clock::now();
  for (ebs::TraceRecord& record : records) {
    driver.Apply(&record, &stats);
  }
  const double elapsed = Since(start);
  if (stats.issued == 0 && !records.empty()) {
    throw std::runtime_error("fault layer saw no IO");
  }
  return 1e9 * Ratio(elapsed, static_cast<double>(records.size()));
}

// ---------------------------------------------------------------------------
// Batch pipeline (paper_batch).
// ---------------------------------------------------------------------------

// A memory-backed file the store round-trips through, so the codec is timed
// without disk I/O. Reopened by path on every run (fopen "wb" truncates it).
class MemFile {
 public:
  MemFile() : fd_(memfd_create("ledger-store", 0)) {
    if (fd_ < 0) {
      throw std::runtime_error("memfd_create failed");
    }
    path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
  ~MemFile() { close(fd_); }
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  const std::string& path() const { return path_; }
  uint64_t size() const {
    const off_t end = lseek(fd_, 0, SEEK_END);
    return end > 0 ? static_cast<uint64_t>(end) : 0;
  }
  void Clear() const {
    if (ftruncate(fd_, 0) != 0) {
      throw std::runtime_error("memfd truncate failed");
    }
  }

 private:
  int fd_;
  std::string path_;
};

constexpr ebs::CachePolicy kReplayPolicies[] = {ebs::CachePolicy::kFifo, ebs::CachePolicy::kLru,
                                                ebs::CachePolicy::kTwoQ};
constexpr const char* kReplayPolicyNames[] = {"fifo", "lru", "2q"};

struct BatchAnalyses {
  Fnv analysis;  // skewness, cache hits, lending gains
  double cache_s[3] = {0.0, 0.0, 0.0};
  double cache_hits[3] = {0.0, 0.0, 0.0};
  double cache_accesses[3] = {0.0, 0.0, 0.0};
  double skew_s = 0.0;
  double lending_s = 0.0;
};

void Skewness(const std::vector<ebs::RwSeries>& level, BatchAnalyses* a) {
  const Clock::time_point start = Clock::now();
  const ebs::LevelSkewness skew = ebs::ComputeLevelSkewness(level);
  a->skew_s += Since(start);
  for (int op = 0; op < 2; ++op) {
    a->analysis.F64(skew.ccr1[op]);
    a->analysis.F64(skew.ccr20[op]);
    a->analysis.F64(skew.p2a50[op]);
  }
}

// Steps 3 and 4 of paper_batch: per-VD cache replay and limited lending.
void CacheAndLending(const ebs::Fleet& fleet, const ebs::WorkloadResult& workload,
                     size_t min_records, BatchAnalyses* a) {
  const ebs::VdTraceIndex index(fleet, workload.traces);
  const std::vector<ebs::VdId> vds = index.ActiveVds(min_records);
  for (int p = 0; p < 3; ++p) {
    const Clock::time_point start = Clock::now();
    for (const ebs::VdId vd : vds) {
      const ebs::CacheReplayResult replay =
          ebs::ReplayVdCache(index.ForVd(vd), fleet.vds[vd.value()].capacity_bytes,
                             512ULL * ebs::kMiB, kReplayPolicies[p]);
      const double accesses = static_cast<double>(replay.page_accesses);
      a->cache_hits[p] += replay.hit_ratio * accesses;
      a->cache_accesses[p] += accesses;
      a->analysis.F64(replay.hit_ratio);
      a->analysis.U64(replay.page_accesses);
    }
    a->cache_s[p] = Since(start);
  }
  const Clock::time_point start = Clock::now();
  const std::vector<double> gains = ebs::SimulateLending(
      fleet, workload.offered_vd, ebs::MultiVdVmGroups(fleet), ebs::ThrottleConfig{});
  a->lending_s = Since(start);
  for (const double g : gains) {
    a->analysis.F64(g);
  }
}

struct StoreTimes {
  double encode_s = 0.0;
  double decode_s = 0.0;
  uint64_t bytes = 0;
};

// Step 5: EBST write of the whole workload, then a full read-back.
StoreTimes StoreRoundTrip(const ebs::WorkloadResult& workload, double step_seconds,
                          const MemFile& file, Fingerprints* fp) {
  StoreTimes t;
  Clock::time_point start = Clock::now();
  if (!ebs::WriteWorkloadToStore(file.path(), workload, step_seconds)) {
    throw std::runtime_error("store write failed");
  }
  t.encode_s = Since(start);
  t.bytes = file.size();
  start = Clock::now();
  const ebs::TraceStoreReader reader(file.path());
  const ebs::TraceDataset decoded = reader.ReadAll();
  ebs::WorkloadResult back;
  reader.ReadMetricsInto(&back);
  t.decode_s = Since(start);
  file.Clear();
  fp->values["store"] = ebs::AggregateFingerprint(decoded);
  fp->values["store_metrics"] = RollupFnv(back.metrics.qp_series);
  return t;
}

RunResult RunBatchFacade(const Workload& w, const MemFile& file) {
  RunResult r;
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const ebs::EbsSimulation sim(w.config);
  BatchAnalyses a;
  const auto& vd = sim.VdSeries();
  Skewness(vd, &a);
  Skewness(sim.VmSeries(), &a);
  Skewness(sim.UserSeries(), &a);
  Skewness(sim.WtSeries(), &a);
  Skewness(sim.CnSeries(), &a);
  const auto& bs = sim.BsSeries();
  Skewness(bs, &a);
  Skewness(sim.SnSeries(), &a);
  Skewness(sim.SegSeries(), &a);
  CacheAndLending(sim.fleet(), sim.workload(), w.cache_min_records, &a);
  StoreRoundTrip(sim.workload(), w.config.workload.step_seconds, file, &r.fp);
  r.wall_s = Since(start);
  r.cpu_s = CpuSeconds() - cpu0;
  r.events = sim.traces().records.size();
  r.fp.values["records"] = r.events;
  r.fp.values["rollup_vd"] = RollupFnv(vd);
  r.fp.values["rollup_bs"] = RollupFnv(bs);
  r.fp.values["qmodel"] = sim.queue_result()->Fingerprint();
  r.fp.values["analysis"] = a.analysis.value();
  return r;
}

// The facade's batch pipeline as separate public calls, each timed:
// BuildFleet -> Generate -> RunOverTraces -> rollups -> analyses -> store.
RunResult RunBatchTraced(const Workload& w, const MemFile& file, Layers* layers) {
  RunResult r;
  const ebs::SimulationConfig& config = w.config;
  Layers& l = *layers;
  const Clock::time_point start = Clock::now();
  const ebs::Fleet fleet = ebs::BuildFleet(config.fleet);
  Clock::time_point t = Clock::now();
  const ebs::WorkloadResult workload = ebs::WorkloadGenerator(fleet, config.workload).Generate();
  l["workload.generate_s"] = Since(t);
  t = Clock::now();
  const double window_s =
      static_cast<double>(config.workload.window_steps) * config.workload.step_seconds;
  const ebs::qmodel::QueueModelResult queue =
      ebs::qmodel::RunOverTraces(fleet, config.queueing, workload.traces, window_s);
  l["qmodel.run_over_traces_s"] = Since(t);

  t = Clock::now();
  const ebs::MetricDataset& m = workload.metrics;
  const std::vector<ebs::RwSeries> vd = ebs::RollupToVd(fleet, m);
  const std::vector<ebs::RwSeries> vm = ebs::RollupToVm(fleet, m);
  const std::vector<ebs::RwSeries> user = ebs::RollupToUser(fleet, m);
  const std::vector<ebs::RwSeries> wt = ebs::RollupToWt(fleet, m);
  const std::vector<ebs::RwSeries> cn = ebs::RollupToComputeNode(fleet, m);
  const std::vector<ebs::RwSeries> bs = ebs::RollupToBlockServer(fleet, m);
  const std::vector<ebs::RwSeries> sn = ebs::RollupToStorageNode(fleet, m);
  std::vector<ebs::RwSeries> seg;
  m.segment_series.ForEachSorted(
      [&seg](uint32_t, const ebs::RwSeries& series) { seg.push_back(series); });
  l["trace.rollup_s"] = Since(t);

  BatchAnalyses a;
  const std::vector<ebs::RwSeries>* levels[] = {&vd, &vm, &user, &wt, &cn, &bs, &sn, &seg};
  for (const std::vector<ebs::RwSeries>* level : levels) {
    Skewness(*level, &a);
  }
  CacheAndLending(fleet, workload, w.cache_min_records, &a);
  const StoreTimes store = StoreRoundTrip(workload, config.workload.step_seconds, file, &r.fp);
  r.wall_s = Since(start);
  r.events = workload.traces.records.size();

  for (int p = 0; p < 3; ++p) {
    const std::string name = kReplayPolicyNames[p];
    l["cache.replay_" + name + "_ns_per_access"] = 1e9 * Ratio(a.cache_s[p], a.cache_accesses[p]);
    l["cache.hit_ratio_" + name] = Ratio(a.cache_hits[p], a.cache_accesses[p]);
  }
  l["throttle.lending_ms"] = 1e3 * a.lending_s;
  l["trace.store_encode_s"] = store.encode_s;
  l["trace.store_decode_s"] = store.decode_s;
  l["trace.store_bytes_per_record"] = Ratio(static_cast<double>(store.bytes),
                                            static_cast<double>(r.events));
  l["trace.rollup_share"] = Ratio(l["trace.rollup_s"], r.wall_s);
  l["replay.events"] = static_cast<double>(r.events);
  l["analysis.skew_s"] = a.skew_s;

  r.fp.values["records"] = r.events;
  r.fp.values["rollup_vd"] = RollupFnv(vd);
  r.fp.values["rollup_bs"] = RollupFnv(bs);
  r.fp.values["qmodel"] = queue.Fingerprint();
  r.fp.values["analysis"] = a.analysis.value();
  return r;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonLayers(const Layers& layers) {
  std::string out = "{";
  char buf[128];
  for (const auto& [name, value] : layers) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", out.size() > 1 ? "," : "", name.c_str(),
                  value);
    out += buf;
  }
  return out + "}";
}

void EmitRun(const char* kind, const RunResult& r, const Layers* layers) {
  std::printf("{\"kind\":\"%s\",\"ok\":true,\"wall_s\":%.9g,\"cpu_s\":%.9g,\"events\":%llu,"
              "\"fp\":%s,\"step_ms\":%s,\"layers\":%s}\n",
              kind, r.wall_s, r.cpu_s, static_cast<unsigned long long>(r.events),
              r.fp.Json().c_str(), JsonNumbers(r.step_ms).c_str(),
              layers != nullptr ? JsonLayers(*layers).c_str() : "{}");
  std::fflush(stdout);
}

void EmitFailure(const char* kind, const std::string& what) {
  std::printf("{\"kind\":\"%s\",\"ok\":false,\"error\":%s}\n", kind, JsonString(what).c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t workload_seed = 2001;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  size_t min_runs = 2;
  size_t workers = 3;
  size_t setup_reps = 3;  // per run
  // --scan: record counts of generation over a range of workload seeds.
  bool scan = false;
  uint64_t scan_from = 0;
  uint64_t scan_to = 0;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--workload-seed") {
      o.workload_seed = std::stoull(next());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(next());
    } else if (arg == "--trace") {
      o.trace = next() == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--min-runs") {
      o.min_runs = std::stoull(next());
    } else if (arg == "--workers") {
      o.workers = std::max<size_t>(1, std::stoull(next()));
    } else if (arg == "--setup-reps") {
      o.setup_reps = std::max<size_t>(1, std::stoull(next()));
    } else if (arg == "--scan") {
      o.scan = true;
      o.workload = next();
    } else if (arg == "--from") {
      o.scan_from = std::stoull(next());
    } else if (arg == "--to") {
      o.scan_to = std::stoull(next());
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  return o;
}

void Scan(const Options& o) {
  for (uint64_t seed = o.scan_from; seed <= o.scan_to; ++seed) {
    double unused = 0.0;
    const Workload w = MakeWorkload(ParseKind(o.workload), seed, o.tiny, &unused);
    const ebs::Fleet fleet = ebs::BuildFleet(w.config.fleet);
    const ebs::WorkloadResult result =
        ebs::GenerateWorkloadParallel(fleet, w.config.workload, o.workers);
    std::printf("{\"kind\":\"scan\",\"workload_seed\":%llu,\"records\":%zu}\n",
                static_cast<unsigned long long>(seed), result.traces.records.size());
    std::fflush(stdout);
  }
}

// Runs `once` until `seconds` have passed, at least `min_runs` times, and
// stops early when the next run would likely overshoot the budget.
template <typename Fn>
void RepeatFor(const Options& o, Fn&& once) {
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  for (size_t n = 0;; ++n) {
    const double elapsed = Since(start);
    if (n >= o.min_runs && elapsed + longest > o.seconds) {
      break;
    }
    const Clock::time_point run_start = Clock::now();
    once();
    longest = std::max(longest, Since(run_start));
  }
}

int Main(const Options& o) {
  const Kind kind = ParseKind(o.workload);
  std::printf("{\"kind\":\"build\",\"compiler\":%s,\"build_type\":%s,\"cxx_flags\":%s}\n",
              JsonString(LEDGER_COMPILER).c_str(), JsonString(LEDGER_BUILD_TYPE).c_str(),
              JsonString(LEDGER_CXX_FLAGS).c_str());

  // Set-up is repeated before every run rather than once, so its median
  // samples the whole measurement window instead of its first milliseconds.
  std::vector<double> setup_s;
  std::vector<double> build_fleet_s;
  Workload w;
  auto set_up = [&] {
    for (size_t i = 0; i < o.setup_reps; ++i) {
      double fleet_s = 0.0;
      const Clock::time_point start = Clock::now();
      w = MakeWorkload(kind, o.workload_seed, o.tiny, &fleet_s);
      setup_s.push_back(Since(start));
      build_fleet_s.push_back(fleet_s);
    }
  };

  const bool streaming = kind != Kind::kPaperBatch;
  std::optional<MemFile> file;
  if (!streaming) {
    file.emplace();
  }
  auto untraced = [&] {
    try {
      EmitRun("run", streaming ? RunStreamingFacade(w, o.workers) : RunBatchFacade(w, *file),
              nullptr);
    } catch (const std::exception& e) {
      EmitFailure("run", e.what());
    }
  };
  if (!o.trace) {
    RepeatFor(o, [&] {
      set_up();
      untraced();
    });
  } else {
    // Pairs of (untraced, traced) runs: each traced run is checked against
    // the facade and the pair's wall times give the tracing overhead.
    RepeatFor(o, [&] {
      set_up();
      untraced();
      try {
        Layers layers;
        const RunResult r = streaming ? RunStreamingTraced(w, o.workers, &layers)
                                      : RunBatchTraced(w, *file, &layers);
        EmitRun("traced", r, &layers);
      } catch (const std::exception& e) {
        EmitFailure("traced", e.what());
      }
    });
    try {
      Layers once;
      if (streaming) {
        once["workload.generate_s"] = TimeGenerationOnly(w, o.workers);
        once["workload.generate_1w_s"] = TimeGenerationOnly(w, 1);
        if (!w.config.workload.faults.empty()) {
          once["fault.apply_ns"] = TimeFaultApplyNs(w, o.workers);
        }
      } else {
        const ebs::Fleet fleet = ebs::BuildFleet(w.config.fleet);
        const Clock::time_point start = Clock::now();
        ebs::GenerateWorkloadParallel(fleet, w.config.workload, 1);
        once["workload.generate_1w_s"] = Since(start);
      }
      std::printf("{\"kind\":\"layers_once\",\"ok\":true,\"layers\":%s}\n",
                  JsonLayers(once).c_str());
    } catch (const std::exception& e) {
      EmitFailure("layers_once", e.what());
    }
  }
  std::printf("{\"kind\":\"setup\",\"setup_s\":%s,\"build_fleet_s\":%s,\"vds\":%zu,"
              "\"window_steps\":%zu}\n",
              JsonNumbers(setup_s).c_str(), JsonNumbers(build_fleet_s).c_str(), w.vds,
              w.config.workload.window_steps);
  std::printf("{\"kind\":\"process\",\"peak_rss_mib\":%.9g}\n", PeakRssMib());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = ParseArgs(argc, argv);
    if (o.scan) {
      Scan(o);
      return 0;
    }
    return Main(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }
}
