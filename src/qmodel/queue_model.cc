#include "src/qmodel/queue_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace ebs {
namespace qmodel {

namespace {

// Microseconds of service bandwidth: bytes / (bytes_per_sec / 1e6).
double TransferUs(double size_bytes, double bytes_per_sec) {
  if (bytes_per_sec <= 0.0) {
    return 0.0;
  }
  return size_bytes * 1.0e6 / bytes_per_sec;
}

void MixBytes(uint64_t* h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *h = (*h ^ bytes[i]) * 1099511628211ULL;
  }
}

void MixU64(uint64_t* h, uint64_t value) { MixBytes(h, &value, sizeof(value)); }

void MixDouble(uint64_t* h, double value) { MixBytes(h, &value, sizeof(value)); }

}  // namespace

double QueueModelResult::MaxWtUtilization() const {
  double busiest = 0.0;
  for (const ServerLoadStat& stat : wt) {
    busiest = std::max(busiest, stat.busy_us);
  }
  return window_seconds > 0.0 ? busiest / (window_seconds * 1.0e6) : 0.0;
}

double QueueModelResult::MaxBsUtilization() const {
  double busiest = 0.0;
  for (const ServerLoadStat& stat : bs) {
    busiest = std::max(busiest, stat.busy_us);
  }
  return window_seconds > 0.0 ? busiest / (window_seconds * 1.0e6) : 0.0;
}

uint64_t QueueModelResult::Fingerprint() const {
  uint64_t h = 1469598103934665603ULL;
  MixU64(&h, events);
  MixDouble(&h, window_seconds);
  MixU64(&h, total_us.Fingerprint());
  MixU64(&h, read_us.Fingerprint());
  MixU64(&h, write_us.Fingerprint());
  for (const LatencyHist& hist : tenant_us) {
    MixU64(&h, hist.Fingerprint());
  }
  for (const VdLatencySummary& summary : vd) {
    MixU64(&h, summary.count);
    MixDouble(&h, summary.sum_us);
    MixDouble(&h, summary.max_us);
    MixU64(&h, summary.slo_violations);
  }
  for (const std::vector<ServerLoadStat>* tier : {&wt, &bs}) {
    for (const ServerLoadStat& stat : *tier) {
      MixDouble(&h, stat.busy_us);
      MixU64(&h, stat.served);
      MixU64(&h, stat.overflows);
      MixU64(&h, stat.max_depth);
    }
  }
  MixU64(&h, slo_violations_read);
  MixU64(&h, slo_violations_write);
  MixU64(&h, wt_overflows);
  MixU64(&h, bs_overflows);
  MixDouble(&h, queue_wait_sum_us);
  return h;
}

std::string ValidateQueueModelConfig(const QueueModelConfig& config) {
  // Each test is false for NaN and the infinities.
  for (const double value : {config.wt.bytes_per_sec, config.wt.per_io_us,
                             config.wt.queue_capacity_us, config.bs.bytes_per_sec,
                             config.bs.per_io_us, config.bs.queue_capacity_us,
                             config.overflow_penalty_us, config.flash_read_us, config.slo.read_us,
                             config.slo.write_us}) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      return "qmodel: service rates, per-IO costs, queue capacities, overflow_penalty_us, "
             "flash_read_us and the SLO targets must be finite and non-negative";
    }
  }
  if (!(std::isfinite(config.load_scale) && config.load_scale > 0.0)) {
    return "qmodel: load_scale must be finite and positive";
  }
  return {};
}

QueueSimulator::QueueSimulator(const Fleet& fleet, const QueueModelConfig& config,
                               double sampling_rate, double window_seconds)
    : fleet_(fleet),
      config_(config),
      upscale_(config.load_scale / (sampling_rate > 0.0 ? sampling_rate : 1.0)),
      window_us_(window_seconds * 1.0e6),
      obs_latency_(obs::MetricRegistry::Global().GetHistogram("qmodel.latency_us", "us")),
      obs_events_(obs::MetricRegistry::Global().GetCounter("qmodel.events")),
      obs_slo_violations_(obs::MetricRegistry::Global().GetCounter("qmodel.slo_violations")),
      obs_overflows_(obs::MetricRegistry::Global().GetCounter("qmodel.overflows")) {
  if (const std::string problem = ValidateQueueModelConfig(config_); !problem.empty()) {
    throw std::invalid_argument(problem);
  }
  if (!config_.segment_bs_remap.empty() &&
      config_.segment_bs_remap.size() != fleet.segments.size()) {
    throw std::invalid_argument("qmodel: segment_bs_remap must cover every segment");
  }
  for (const uint32_t bs : config_.segment_bs_remap) {
    if (bs != QueueModelConfig::kNoRemap && bs >= fleet.block_servers.size()) {
      throw std::out_of_range("qmodel: segment_bs_remap names an unknown block server");
    }
  }
  if (!config_.vd_admission_bytes_per_sec.empty() &&
      config_.vd_admission_bytes_per_sec.size() != fleet.vds.size()) {
    throw std::invalid_argument("qmodel: vd_admission_bytes_per_sec must cover every VD");
  }
  wt_.resize(fleet.wts.size());
  bs_.resize(fleet.block_servers.size());
  vd_admission_free_us_.assign(fleet.vds.size(), 0.0);
  result_.window_seconds = window_seconds;
  result_.tenant_us.resize(fleet.users.size());
  result_.vd.resize(fleet.vds.size());
  result_.wt.resize(fleet.wts.size());
  result_.bs.resize(fleet.block_servers.size());
}

uint64_t QueueSimulator::Depth(ServerState* server, double now_us) {
  while (!server->departures.empty() && server->departures.front() <= now_us) {
    server->departures.pop_front();
  }
  return server->departures.size();
}

uint32_t QueueSimulator::DispatchWt(const InFlight& io, double arrival_us) const {
  if (config_.dispatch == WtDispatch::kRecordBinding) {
    return io.wt;
  }
  // Least-loaded WT of the IO's compute node: earliest possible start wins,
  // lowest id breaks ties (both deterministic functions of simulated state).
  const ComputeNodeId node = fleet_.wts[io.wt].node;
  uint32_t best = io.wt;
  double best_start = std::numeric_limits<double>::infinity();
  for (const WorkerThreadId candidate : fleet_.nodes[node.value()].wts) {
    const ServerState& server = wt_[candidate.value()];
    const double next_free =
        server.departures.empty() ? arrival_us : server.departures.back();
    const double start = std::max(arrival_us, next_free);
    if (start < best_start || (start == best_start && candidate.value() < best)) {
      best = candidate.value();
      best_start = start;
    }
  }
  return best;
}

void QueueSimulator::Arrive(const TraceRecord& record, uint64_t sequence, bool cn_cache_hit) {
  const double submit_us = record.timestamp * 1.0e6;
  DrainUntil(submit_us);

  InFlight io;
  io.submit_us = submit_us;
  io.size_bytes = static_cast<double>(record.size_bytes);
  io.op = record.op;
  io.vd = record.vd.value();
  io.user = record.user.value();
  io.wt = record.wt.value();
  io.bs = record.bs.value();
  io.cn_cache_hit = cn_cache_hit;
  io.fault_timed_out = record.fault_timed_out;

  if (!config_.segment_bs_remap.empty()) {
    const uint32_t remap = config_.segment_bs_remap[record.segment.value()];
    if (remap != QueueModelConfig::kNoRemap) {
      io.bs = remap;
    }
  }

  const auto& lat = record.latency.component_us;
  io.frontend_us = lat[static_cast<int>(StackComponent::kFrontendNetwork)];
  // The fault driver folds the client-side retry/backoff wait into the
  // BlockServer slice; strip it back out of server occupancy (a dead-target
  // wait burns the client's budget, not the surviving server's time) and
  // charge it as pre-arrival delay instead.
  io.retry_wait_us =
      record.fault_retries > 0 ? RetryPenaltyUs(config_.retry, record.fault_retries) : 0.0;
  const double bs_slice =
      std::max(0.0, lat[static_cast<int>(StackComponent::kBlockServer)] - io.retry_wait_us);
  io.bs_basis_us = bs_slice + lat[static_cast<int>(StackComponent::kBackendNetwork)] +
                   lat[static_cast<int>(StackComponent::kChunkServer)];

  // Admission stage (throttle/lending what-if): a per-VD FIFO rate cap.
  // Per-VD arrivals are time-ordered in the canonical stream, so the running
  // next-free scalar is exact.
  double ready_us = submit_us;
  if (!config_.vd_admission_bytes_per_sec.empty()) {
    const double rate = config_.vd_admission_bytes_per_sec[io.vd];
    if (rate > 0.0) {
      const double start = std::max(submit_us, vd_admission_free_us_[io.vd]);
      vd_admission_free_us_[io.vd] = start + TransferUs(io.size_bytes, rate) * upscale_;
      ready_us = start;
    }
  }

  Event event;
  event.time_us = ready_us + lat[static_cast<int>(StackComponent::kComputeNode)];
  event.stage = Stage::kWtArrival;
  event.vd = io.vd;
  event.sequence = sequence;
  event.io = io;
  events_.push(event);
}

void QueueSimulator::DrainUntil(double time_us) {
  while (!events_.empty() && events_.top().time_us <= time_us) {
    const Event event = events_.top();
    events_.pop();
    if (event.stage == Stage::kWtArrival) {
      ProcessWtArrival(event);
    } else {
      ProcessBsArrival(event);
    }
  }
}

void QueueSimulator::ProcessWtArrival(const Event& event) {
  InFlight io = event.io;
  const double now = event.time_us;
  io.wt = DispatchWt(io, now);
  ServerState& server = wt_[io.wt];
  Depth(&server, now);

  const double next_free = server.departures.empty() ? now : server.departures.back();
  const double backlog = next_free - now;
  if (config_.wt.queue_capacity_us > 0.0 && backlog > config_.wt.queue_capacity_us) {
    ++server.stat.overflows;
    ++result_.wt_overflows;
    Complete(io, now + config_.overflow_penalty_us);
    return;
  }

  const double start = std::max(now, next_free);
  const double single_us = config_.wt.per_io_us + TransferUs(io.size_bytes, config_.wt.bytes_per_sec);
  const double occupancy_us = single_us * upscale_;
  server.departures.push_back(start + occupancy_us);
  server.stat.busy_us += occupancy_us;
  ++server.stat.served;
  server.stat.max_depth = std::max(server.stat.max_depth,
                                   static_cast<uint64_t>(server.departures.size()));
  result_.queue_wait_sum_us += start - now;

  // The sampled IO rides at the head of its upscaled batch: its own latency
  // advances by the single-IO service, the server stays busy for the batch.
  const double depart_us = start + single_us;
  if (io.cn_cache_hit) {
    Complete(io, depart_us + config_.flash_read_us);
    return;
  }
  Event next;
  next.time_us = depart_us + io.frontend_us + io.retry_wait_us;
  next.stage = Stage::kBsArrival;
  next.vd = io.vd;
  next.sequence = event.sequence;
  next.io = io;
  events_.push(next);
}

void QueueSimulator::ProcessBsArrival(const Event& event) {
  const InFlight& io = event.io;
  const double now = event.time_us;
  if (io.fault_timed_out) {
    // The IO exhausted its retry budget against dead targets; it never got
    // service, so it consumes no BS occupancy and completes at its budget.
    Complete(io, now + io.bs_basis_us);
    return;
  }
  ServerState& server = bs_[io.bs];
  Depth(&server, now);

  const double next_free = server.departures.empty() ? now : server.departures.back();
  const double backlog = next_free - now;
  if (config_.bs.queue_capacity_us > 0.0 && backlog > config_.bs.queue_capacity_us) {
    ++server.stat.overflows;
    ++result_.bs_overflows;
    Complete(io, now + config_.overflow_penalty_us);
    return;
  }

  // The BS queue server covers only the BS's own processing (per-IO cost +
  // byte transfer); the backend-network/chunk-server slices are an
  // infinite-server delay stage — they stretch the IO's latency but hold no
  // queue slot (media parallelism), so a fault-inflated CS slice storms the
  // tail directly while occupancy-driven storms come from failover load
  // concentration.
  const double start = std::max(now, next_free);
  const double single_us =
      config_.bs.per_io_us + TransferUs(io.size_bytes, config_.bs.bytes_per_sec);
  const double occupancy_us = single_us * upscale_;
  server.departures.push_back(start + occupancy_us);
  server.stat.busy_us += occupancy_us;
  ++server.stat.served;
  server.stat.max_depth = std::max(server.stat.max_depth,
                                   static_cast<uint64_t>(server.departures.size()));
  result_.queue_wait_sum_us += start - now;

  Complete(io, start + single_us + io.bs_basis_us);
}

void QueueSimulator::Complete(const InFlight& io, double completion_us) {
  const double total_us = std::max(0.0, completion_us - io.submit_us);
  ++result_.events;
  result_.total_us.Record(total_us);
  if (io.op == OpType::kRead) {
    result_.read_us.Record(total_us);
  } else {
    result_.write_us.Record(total_us);
  }
  result_.tenant_us[io.user].Record(total_us);

  VdLatencySummary& summary = result_.vd[io.vd];
  ++summary.count;
  summary.sum_us += total_us;
  summary.max_us = std::max(summary.max_us, total_us);
  const double slo_us = io.op == OpType::kRead ? config_.slo.read_us : config_.slo.write_us;
  if (total_us > slo_us) {
    ++summary.slo_violations;
    if (io.op == OpType::kRead) {
      ++result_.slo_violations_read;
    } else {
      ++result_.slo_violations_write;
    }
    obs_slo_violations_->Increment();
  }

  obs_events_->Increment();
  obs_latency_->Record(static_cast<uint64_t>(std::llround(total_us)));
}

QueueInterimStats QueueSimulator::Interim() const {
  QueueInterimStats stats;
  stats.events = result_.events;
  stats.slo_violations = result_.slo_violations_read + result_.slo_violations_write;
  stats.overflows = result_.wt_overflows + result_.bs_overflows;
  stats.p99_us = result_.total_us.Percentile(0.99);
  return stats;
}

void QueueSimulator::SetSegmentRemap(SegmentId segment, uint32_t bs) {
  if (segment.value() >= fleet_.segments.size()) {
    throw std::out_of_range("qmodel: SetSegmentRemap on unknown segment");
  }
  if (bs != QueueModelConfig::kNoRemap && bs >= fleet_.block_servers.size()) {
    throw std::out_of_range("qmodel: SetSegmentRemap to unknown block server");
  }
  if (config_.segment_bs_remap.empty()) {
    config_.segment_bs_remap.assign(fleet_.segments.size(), QueueModelConfig::kNoRemap);
  }
  config_.segment_bs_remap[segment.value()] = bs;
}

void QueueSimulator::SetVdAdmissionRate(VdId vd, double bytes_per_sec) {
  if (vd.value() >= fleet_.vds.size()) {
    throw std::out_of_range("qmodel: SetVdAdmissionRate on unknown VD");
  }
  if (config_.vd_admission_bytes_per_sec.empty()) {
    config_.vd_admission_bytes_per_sec.assign(fleet_.vds.size(), 0.0);
  }
  config_.vd_admission_bytes_per_sec[vd.value()] = bytes_per_sec;
}

QueueModelResult QueueSimulator::Finish() {
  if (finished_) {
    throw std::logic_error("qmodel: Finish called twice");
  }
  finished_ = true;
  DrainUntil(std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < wt_.size(); ++i) {
    result_.wt[i] = wt_[i].stat;
  }
  for (size_t i = 0; i < bs_.size(); ++i) {
    result_.bs[i] = bs_[i].stat;
  }
  obs_overflows_->Add(result_.wt_overflows + result_.bs_overflows);
  return std::move(result_);
}

QueueModelResult RunOverTraces(const Fleet& fleet, const QueueModelConfig& config,
                               const TraceDataset& traces, double window_seconds,
                               const std::vector<uint8_t>* cn_cache_hits) {
  if (cn_cache_hits != nullptr && cn_cache_hits->size() != traces.records.size()) {
    throw std::invalid_argument("qmodel: cn_cache_hits must cover every trace record");
  }
  if (!std::is_sorted(traces.records.begin(), traces.records.end(), TraceRecordBefore)) {
    throw std::invalid_argument("qmodel: trace records are not in canonical order");
  }
  QueueSimulator simulator(fleet, config, traces.sampling_rate, window_seconds);
  std::vector<uint64_t> vd_sequence(fleet.vds.size(), 0);
  for (size_t i = 0; i < traces.records.size(); ++i) {
    const TraceRecord& record = traces.records[i];
    const bool hit = cn_cache_hits != nullptr && (*cn_cache_hits)[i] != 0;
    simulator.Arrive(record, vd_sequence[record.vd.value()]++, hit);
  }
  return simulator.Finish();
}

}  // namespace qmodel
}  // namespace ebs
