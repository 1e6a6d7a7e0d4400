// Fleet traffic synthesis: produces the paper's two datasets.
//
// For every VM the generator draws per-application volumes, splits them
// across the VM's VDs with an extreme Dirichlet (the paper's VM-to-VD CoV is
// ~0.97 — one data disk dominates), shapes each VD's volume in time
// (episodic reads, steady-plus-burst writes), splits it across queue pairs
// with the blk-mq "none"-policy concentration of §4.2, and spreads it across
// segments using the VD's spatial model. The same per-second delivered rates
// feed (a) the full-scale second-level metric dataset and (b) a thinned
// Poisson stream of per-IO trace records.
// The per-VD streams of vd_stream.h produce both; the replay engine's shards
// (src/replay) step them, also for WorkloadGenerator::Generate.

#ifndef SRC_WORKLOAD_GENERATOR_H_
#define SRC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/fault/schedule.h"
#include "src/scenario/spec.h"
#include "src/topology/fleet.h"
#include "src/topology/latency.h"
#include "src/trace/records.h"
#include "src/workload/app_profile.h"

namespace ebs {

struct WorkloadConfig {
  uint64_t seed = 123;
  size_t window_steps = 600;
  double step_seconds = 1.0;

  // Trace thinning rate. The paper samples at 1/3200 across 140k VDs; our
  // fleet is ~300x smaller, so a coarser default keeps the per-VD trace
  // density comparable.
  double sampling_rate = 1.0 / 320.0;

  double rate_scale = 1.0;   // global volume multiplier
  // Upper bound on a single VD's mean offered *write* rate (MB/s); 0
  // disables. The storage-side studies use this scaling substitution: in
  // production a VD's write traffic is tiny next to a BlockServer's
  // aggregate, which a ~300x smaller fleet cannot reproduce without bounding
  // whale writers. Reads stay unbounded — persistent whale scans are exactly
  // the unmanaged read skew of §6.2.
  double max_vd_mean_write_rate_mbps = 0.0;
  bool apply_throttle = true;
  double cap_scale = 1.0;    // multiplier on the spec throughput/IOPS caps

  LatencyModelConfig latency;

  // Ablation switches for the design-choice study (bench_ablation_workload):
  // each disables one structural ingredient of the traffic model.
  bool episodic_reads = true;    // false: reads use the steady write process
  bool qp_concentration = true;  // false: uniform VD->QP split
  double hot_prob_scale = 1.0;   // 0 disables the LBA hot block

  // Optional fault timeline. Empty (the default) is the identity contract:
  // output is bit-for-bit the pre-fault-subsystem output. With events, the
  // sampled traces gain retry/timeout/failover effects; the full-scale metric
  // series stay untouched (faults reshape per-IO paths, not offered volume).
  FaultSchedule faults;

  // Optional time-varying scenario (diurnal curves, flash crowds, tenant
  // churn, migration/resize/snapshot events — src/scenario). Same identity
  // contract as faults: empty means bit-for-bit the stationary output. The
  // scenario modulates *offered* rates before throttling; faults then
  // transform the sampled records and the control loop actuates on top, so
  // the three layers compose. Generation throws ScenarioError on a spec that
  // does not validate against the fleet/window.
  scenario::ScenarioSpec scenario;
};

// Per-VD ground truth retained for tests and the cache analyses.
struct VdGroundTruth {
  bool read_active = false;
  bool write_active = false;
  double mean_read_bps = 0.0;
  double mean_write_bps = 0.0;
  uint64_t hot_offset = 0;
  uint64_t hot_bytes = 0;
  double hot_prob_read = 0.0;
  double hot_prob_write = 0.0;
};

struct WorkloadResult {
  MetricDataset metrics;              // delivered (cap-clipped) traffic
  TraceDataset traces;                // sampled per-IO records
  std::vector<RwSeries> offered_vd;   // per-VD offered (pre-throttle) load
  std::vector<VdGroundTruth> vd_truth;
  FaultStats faults;                  // all-zero when the schedule is empty

  double TotalDeliveredBytes(OpType op) const;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const Fleet& fleet, WorkloadConfig config)
      : fleet_(fleet), config_(std::move(config)) {}

  // Deterministic in (fleet, config.seed). GenerateWorkloadParallel on
  // DefaultGenerateWorkers() threads; defined in src/replay, which every
  // caller links through ebs_core.
  WorkloadResult Generate() const;

 private:
  const Fleet& fleet_;
  WorkloadConfig config_;
};

}  // namespace ebs

#endif  // SRC_WORKLOAD_GENERATOR_H_
