#include "src/workload/vd_stream.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/distributions.h"

namespace ebs {

namespace {

constexpr double kBytesPerMB = 1e6;

// Gamma(shape, 1) via Marsaglia-Tsang; used for Dirichlet splits.
double SampleGamma(double shape, Rng& rng) {
  if (shape < 1.0) {
    // Boost via Gamma(shape+1) * U^(1/shape).
    const double u = std::max(1e-12, rng.NextDouble());
    return SampleGamma(shape + 1.0, rng) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x;
    double v;
    do {
      x = rng.NextGaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v;
    }
    if (std::log(std::max(1e-300, u)) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

// Dirichlet(shape, ..., shape) over n entries. Small shapes concentrate the
// mass on one entry.
std::vector<double> SampleDirichlet(size_t n, double shape, Rng& rng) {
  std::vector<double> weights(n);
  double total = 0.0;
  for (double& w : weights) {
    w = SampleGamma(shape, rng);
    total += w;
  }
  if (total <= 0.0) {
    weights.assign(n, 1.0 / static_cast<double>(n));
    return weights;
  }
  for (double& w : weights) {
    w /= total;
  }
  return weights;
}

// Rounds an IO size to a 4 KiB multiple in [4 KiB, 4 MiB].
uint32_t QuantizeIoSize(double bytes) {
  const double clamped = std::clamp(bytes, static_cast<double>(kPageBytes), 4.0 * 1024 * 1024);
  const uint64_t pages = std::max<uint64_t>(1, static_cast<uint64_t>(clamped) / kPageBytes);
  return static_cast<uint32_t>(pages * kPageBytes);
}

struct QpSplit {
  // Per-op normalized weights over the VD's QPs.
  std::vector<double> read;
  std::vector<double> write;
};

// §4.2 Type II/III behaviour: a sizeable share of VDs funnel all traffic to a
// single QP (blk-mq scheduling policy "none" + a single IO thread); the rest
// use skewed Dirichlet splits, with writes far more concentrated than reads
// (one WAL/append writer vs parallel readers; paper: CoV_vd2qp 0.81 write vs
// 0.39 read).
QpSplit SampleQpSplit(size_t qp_count, Rng& rng) {
  QpSplit split;
  if (qp_count == 1 || rng.NextBool(0.30)) {
    split.read.assign(qp_count, 0.0);
    split.write.assign(qp_count, 0.0);
    const size_t chosen = static_cast<size_t>(rng.NextBounded(qp_count));
    split.read[chosen] = 1.0;
    split.write[chosen] = 1.0;
    return split;
  }
  split.read = SampleDirichlet(qp_count, 1.5, rng);
  split.write = SampleDirichlet(qp_count, 0.2, rng);
  return split;
}

// Ablations: structural ingredients can be switched off individually.
AppProfile MakeEffectiveProfile(const AppProfile& profile, const WorkloadConfig& config) {
  AppProfile effective = profile;
  effective.hot_prob_read_median *= config.hot_prob_scale;
  effective.hot_prob_write_median *= config.hot_prob_scale;
  effective.seq_header_rewrite_prob *= config.hot_prob_scale;
  return effective;
}

// Observation window length in seconds, computed exactly as the batch
// generator did (steps * dt first, then scaled by the rate) so the spatial
// model sees bit-identical window volumes.
double WindowSeconds(const RateProcessGenerator& temporal) {
  return static_cast<double>(temporal.config().window_steps) * temporal.config().step_seconds;
}

}  // namespace

VdTrafficStream::VdTrafficStream(const Fleet& fleet, const WorkloadConfig& config, const Vd& vd,
                                 const AppProfile& profile, bool subsecond_cluster,
                                 double vd_read_bps, double vd_write_bps,
                                 const RateProcessGenerator& temporal,
                                 const LatencyModel& latency_model, Rng vd_rng,
                                 VdStreamTargets targets, VdGroundTruth* truth,
                                 const scenario::CompiledVdCurve* scenario_curve)
    : fleet_(fleet),
      config_(config),
      vd_(vd),
      profile_(profile),
      latency_model_(latency_model),
      subsecond_cluster_(subsecond_cluster),
      targets_(std::move(targets)),
      scenario_curve_(scenario_curve),
      rng_(vd_rng),
      // Construction consumes rng_ in a fixed order: spatial model, read
      // process, write process, QP split, IO medians.
      spatial_(vd, MakeEffectiveProfile(profile, config), vd_read_bps * WindowSeconds(temporal),
               vd_write_bps * WindowSeconds(temporal), rng_),
      read_series_(config.episodic_reads
                       ? temporal.Generate(OpType::kRead, vd_read_bps,
                                           vd.throughput_cap_mbps * kBytesPerMB *
                                               config.cap_scale,
                                           profile, rng_)
                       : temporal.Generate(OpType::kWrite, vd_read_bps, 0.0, profile, rng_)),
      write_series_(temporal.Generate(OpType::kWrite, vd_write_bps,
                                      /*peak_ceiling_bps=*/0.0, profile, rng_)) {
  truth->hot_offset = spatial_.hot_offset();
  truth->hot_bytes = spatial_.hot_bytes();
  truth->hot_prob_read = spatial_.hot_prob(OpType::kRead);
  truth->hot_prob_write = spatial_.hot_prob(OpType::kWrite);

  QpSplit qp_split = SampleQpSplit(vd.qps.size(), rng_);
  if (!config.qp_concentration) {
    const double uniform = 1.0 / static_cast<double>(vd.qps.size());
    qp_split.read.assign(vd.qps.size(), uniform);
    qp_split.write.assign(vd.qps.size(), uniform);
  }
  qp_read_ = std::move(qp_split.read);
  qp_write_ = std::move(qp_split.write);
  // Reads: each episode is a scan issued by 1..k parallel reader threads,
  // each on its own QP (blk-mq maps threads to queues); the set changes
  // between episodes. Writers stay pinned. A VD whose split is fully
  // concentrated (blk-mq "none" + one thread) keeps reads pinned too.
  read_churn_ =
      vd.qps.size() > 1 && std::count(qp_read_.begin(), qp_read_.end(), 0.0) == 0;

  // Per-VD IO size medians, jittered around the app profile.
  read_io_median_ = profile.read_io_kib_median * kKiB * std::exp(0.3 * rng_.NextGaussian());
  write_io_median_ = profile.write_io_kib_median * kKiB * std::exp(0.3 * rng_.NextGaussian());

  cap_bps_ = vd.throughput_cap_mbps * kBytesPerMB * config.cap_scale;
  cap_iops_ = vd.iops_cap * config.cap_scale;
}

void VdTrafficStream::Step(size_t t, std::vector<TraceRecord>* samples) {
  const double dt = read_series_.step_seconds();
  double read_bytes = read_series_[t] * dt;
  double write_bytes = write_series_[t] * dt;
  if (scenario_curve_ != nullptr) {
    // Scenario modulation scales the *offered* rate, so it lands before the
    // episode bookkeeping (a zeroed step ends a read episode exactly as a
    // naturally idle one would) and before throttling (a flash crowd can
    // trip the caps). Untouched VDs have no curve and skip this entirely —
    // their output stays bit-identical to the stationary run.
    const auto& pieces = scenario_curve_->pieces;
    while (scenario_cursor_ + 1 < pieces.size() &&
           pieces[scenario_cursor_ + 1].start_step <= t) {
      ++scenario_cursor_;
    }
    read_bytes *= pieces[scenario_cursor_].read_mult;
    write_bytes *= pieces[scenario_cursor_].write_mult;
  }
  if (read_bytes <= 0.0) {
    read_was_active_ = false;
  } else if (!read_was_active_) {
    // New read episode: a fresh set of reader threads issues it.
    if (read_churn_) {
      const size_t k = vd_.qps.size();
      const size_t threads = 1 + static_cast<size_t>(rng_.NextBounded(k));
      const size_t start = static_cast<size_t>(rng_.NextBounded(k));
      read_active_qps_.clear();
      for (size_t i = 0; i < threads; ++i) {
        read_active_qps_.push_back((start + i) % k);
      }
    }
    read_was_active_ = true;
  }
  if (read_bytes <= 0.0 && write_bytes <= 0.0) {
    return;
  }

  // Per-step IO sizes; bursts of small IOs can trip the IOPS cap even when
  // throughput is moderate.
  const double read_io =
      std::max<double>(kPageBytes, read_io_median_ * std::exp(0.25 * rng_.NextGaussian()));
  const double write_io =
      std::max<double>(kPageBytes, write_io_median_ * std::exp(0.25 * rng_.NextGaussian()));
  double read_ops = read_bytes / read_io;
  double write_ops = write_bytes / write_io;

  RwSeries& offered = *targets_.offered;
  offered.read_bytes[t] = read_bytes;
  offered.write_bytes[t] = write_bytes;
  offered.read_ops[t] = read_ops;
  offered.write_ops[t] = write_ops;

  if (config_.apply_throttle) {
    // Joint read+write caps, as in production (§5.2).
    const double bytes_total = read_bytes + write_bytes;
    const double ops_total = read_ops + write_ops;
    double scale = 1.0;
    if (cap_bps_ > 0.0 && bytes_total > cap_bps_ * dt) {
      scale = std::min(scale, cap_bps_ * dt / bytes_total);
    }
    if (cap_iops_ > 0.0 && ops_total > cap_iops_ * dt) {
      scale = std::min(scale, cap_iops_ * dt / ops_total);
    }
    read_bytes *= scale;
    write_bytes *= scale;
    read_ops *= scale;
    write_ops *= scale;
  }

  // Compute-domain metrics (per QP). Reads of a churning VD split evenly
  // across the episode's reader QPs; writes follow the static split.
  if (read_bytes > 0.0 && read_churn_) {
    const double share = 1.0 / static_cast<double>(read_active_qps_.size());
    for (const size_t q : read_active_qps_) {
      RwSeries& qp = *targets_.qps[q];
      qp.read_bytes[t] += read_bytes * share;
      qp.read_ops[t] += read_ops * share;
    }
  }
  for (size_t q = 0; q < vd_.qps.size(); ++q) {
    RwSeries& qp = *targets_.qps[q];
    if (!read_churn_ && qp_read_[q] > 0.0 && read_bytes > 0.0) {
      qp.read_bytes[t] += read_bytes * qp_read_[q];
      qp.read_ops[t] += read_ops * qp_read_[q];
    }
    if (qp_write_[q] > 0.0 && write_bytes > 0.0) {
      qp.write_bytes[t] += write_bytes * qp_write_[q];
      qp.write_ops[t] += write_ops * qp_write_[q];
    }
  }

  // Storage-domain metrics: each segment cell is this delivered value times
  // the segment's spatial weight (SegmentSeriesMap multiplies on read). An op
  // is recorded only when its bytes are positive, so a skipped op leaves +0.0
  // and its segment cells read 0.0.
  RwSeries& delivered = *targets_.delivered;
  if (read_bytes > 0.0) {
    delivered.read_bytes[t] = read_bytes;
    delivered.read_ops[t] = read_ops;
  }
  if (write_bytes > 0.0) {
    delivered.write_bytes[t] = write_bytes;
    delivered.write_ops[t] = write_ops;
  }

  // Sampled traces (thinned Poisson from the delivered stream).
  for (const OpType op : {OpType::kRead, OpType::kWrite}) {
    const double ops = op == OpType::kRead ? read_ops : write_ops;
    const double io_size = op == OpType::kRead ? read_io : write_io;
    const uint64_t count = rng_.NextPoisson(ops * config_.sampling_rate);
    if (count == 0) {
      continue;
    }
    const double cluster_center = rng_.NextUniform(0.0, 0.95);
    const auto& qp_weights = op == OpType::kRead ? qp_read_ : qp_write_;
    for (uint64_t s = 0; s < count; ++s) {
      TraceRecord record;
      double sub = subsecond_cluster_ ? cluster_center + rng_.NextExponential(1.0 / 0.004)
                                      : rng_.NextDouble();
      sub = std::min(sub, 0.999999);
      record.timestamp = (static_cast<double>(t) + sub) * dt;
      record.op = op;
      record.size_bytes = QuantizeIoSize(io_size * std::exp(0.15 * rng_.NextGaussian()));
      record.offset = spatial_.SampleOffset(op, record.size_bytes, rng_);
      record.user = vd_.user;
      record.vm = vd_.vm;
      record.vd = vd_.id;
      // QP choice: churning reads pin to the episode's QP; otherwise follow
      // the static split weights.
      size_t q;
      if (op == OpType::kRead && read_churn_) {
        q = read_active_qps_[rng_.NextBounded(read_active_qps_.size())];
      } else {
        double u = rng_.NextDouble();
        q = 0;
        for (; q + 1 < qp_weights.size(); ++q) {
          if (u < qp_weights[q]) {
            break;
          }
          u -= qp_weights[q];
        }
      }
      record.qp = vd_.qps[q];
      record.wt = fleet_.qps[record.qp.value()].bound_wt;
      record.cn = fleet_.qps[record.qp.value()].node;
      record.segment = fleet_.SegmentForOffset(vd_.id, record.offset);
      record.bs = fleet_.segments[record.segment.value()].server;
      record.sn = fleet_.block_servers[record.bs.value()].node;
      record.latency = latency_model_.Sample(op, rng_);
      samples->push_back(record);
    }
  }
}

void VdTrafficStream::AppendSegmentEntries(std::vector<SegmentEntry>* entries) const {
  // Both op lists ascend by segment index within the VD; merge them into one
  // entry per segment.
  const auto& reads = spatial_.ActiveSegments(OpType::kRead);
  const auto& writes = spatial_.ActiveSegments(OpType::kWrite);
  constexpr uint32_t kDone = std::numeric_limits<uint32_t>::max();
  size_t r = 0;
  size_t w = 0;
  while (r < reads.size() || w < writes.size()) {
    const uint32_t read_index = r < reads.size() ? reads[r].first : kDone;
    const uint32_t write_index = w < writes.size() ? writes[w].first : kDone;
    const uint32_t index = std::min(read_index, write_index);
    SegmentEntry entry;
    entry.id = vd_.segments[index].value();
    entry.source = vd_.id.value();
    if (read_index == index) {
      entry.read_weight = reads[r++].second;
    }
    if (write_index == index) {
      entry.write_weight = writes[w++].second;
    }
    entries->push_back(entry);
  }
}

void BuildVmStreams(const Fleet& fleet, const WorkloadConfig& config, const Vm& vm,
                    const RateProcessGenerator& temporal, const LatencyModel& latency_model,
                    const Rng& root, std::vector<RwSeries>* qp_series,
                    std::vector<RwSeries>* offered_vd, std::vector<RwSeries>* delivered_vd,
                    std::vector<VdGroundTruth>* vd_truth,
                    std::vector<SegmentEntry>* segment_entries,
                    const scenario::ScenarioModel* scenario,
                    std::vector<std::unique_ptr<VdTrafficStream>>* streams) {
  Rng vm_rng = root.Fork(vm.id.value());
  const AppProfile& profile = GetAppProfile(vm.app);

  const bool read_active = vm_rng.NextBool(profile.read_active_prob);
  const bool write_active = vm_rng.NextBool(profile.write_active_prob);
  const LognormalDistribution read_dist(profile.read_rate_mu, profile.read_rate_sigma);
  const LognormalDistribution write_dist(profile.write_rate_mu, profile.write_rate_sigma);
  const double vm_read_bps =
      read_active ? read_dist.Sample(vm_rng) * kBytesPerMB * config.rate_scale : 0.0;
  const double vm_write_bps =
      write_active ? write_dist.Sample(vm_rng) * kBytesPerMB * config.rate_scale : 0.0;
  const bool subsecond_cluster = vm_rng.NextBool(profile.subsecond_cluster_prob);

  // One data disk dominates (§4.2: VM-to-VD CoV ~= 0.97).
  const std::vector<double> vd_weights = SampleDirichlet(vm.vds.size(), 0.08, vm_rng);

  for (size_t d = 0; d < vm.vds.size(); ++d) {
    const Vd& vd = fleet.vds[vm.vds[d].value()];
    Rng vd_rng = vm_rng.Fork(d + 1);

    double vd_read_bps = vm_read_bps * vd_weights[d];
    double vd_write_bps = vm_write_bps * vd_weights[d];
    if (config.max_vd_mean_write_rate_mbps > 0.0) {
      vd_write_bps = std::min(vd_write_bps, config.max_vd_mean_write_rate_mbps * kBytesPerMB);
    }
    VdGroundTruth& truth = (*vd_truth)[vd.id.value()];
    truth.read_active = vd_read_bps > 0.0;
    truth.write_active = vd_write_bps > 0.0;
    truth.mean_read_bps = vd_read_bps;
    truth.mean_write_bps = vd_write_bps;
    if (vd_read_bps <= 0.0 && vd_write_bps <= 0.0) {
      continue;
    }

    VdStreamTargets targets;
    targets.offered = &(*offered_vd)[vd.id.value()];
    targets.delivered = &(*delivered_vd)[vd.id.value()];
    targets.qps.reserve(vd.qps.size());
    for (const QpId qp : vd.qps) {
      targets.qps.push_back(&(*qp_series)[qp.value()]);
    }

    streams->push_back(std::make_unique<VdTrafficStream>(
        fleet, config, vd, profile, subsecond_cluster, vd_read_bps, vd_write_bps, temporal,
        latency_model, vd_rng, std::move(targets), &truth,
        scenario != nullptr ? scenario->CurveFor(vd.id) : nullptr));
    streams->back()->AppendSegmentEntries(segment_entries);
  }
}

}  // namespace ebs
