// Stepwise per-VD traffic streams.
//
// The fleet synthesizer's unit of randomness is the VM: every draw a VM's
// traffic needs comes from Rng::Fork(vm.id), so two VMs never share generator
// state. VdTrafficStream exposes that structure as an incremental API — build
// the streams of a VM once (the expensive part: spatial model, whole-window
// rate processes, QP split), then generate one second at a time. A stream's
// output depends only on its own state, and every metric target it writes
// belongs to exactly one VD, so the replay shards may step streams of
// different VDs in any interleaving, on any thread, with identical results.

#ifndef SRC_WORKLOAD_VD_STREAM_H_
#define SRC_WORKLOAD_VD_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/scenario/model.h"
#include "src/topology/fleet.h"
#include "src/topology/latency.h"
#include "src/trace/records.h"
#include "src/workload/app_profile.h"
#include "src/workload/generator.h"
#include "src/workload/spatial.h"
#include "src/workload/temporal.h"

namespace ebs {

// Where one VD's generated traffic lands. The caller owns every pointed-to
// series and guarantees it outlives the stream. No two VDs ever share a
// target series (QPs belong to exactly one VD).
struct VdStreamTargets {
  RwSeries* offered = nullptr;    // per-VD offered (pre-throttle) load
  RwSeries* delivered = nullptr;  // per-VD delivered load, the storage domain's source
  std::vector<RwSeries*> qps;     // one per VD QP, in QP order
};

// One VD's traffic source. Step(t) must be called with strictly increasing t;
// streams of different VDs are independent and may be stepped concurrently
// from different threads.
class VdTrafficStream {
 public:
  // `scenario_curve` (may be nullptr: identity) scales the VD's offered
  // rates per step before throttling — the scenario layer's only touch point.
  VdTrafficStream(const Fleet& fleet, const WorkloadConfig& config, const Vd& vd,
                  const AppProfile& profile, bool subsecond_cluster, double vd_read_bps,
                  double vd_write_bps, const RateProcessGenerator& temporal,
                  const LatencyModel& latency_model, Rng vd_rng, VdStreamTargets targets,
                  VdGroundTruth* truth, const scenario::CompiledVdCurve* scenario_curve);

  // Generates second `t`: writes the step's metric deltas into the targets
  // and appends the step's sampled IO records to *samples.
  void Step(size_t t, std::vector<TraceRecord>* samples);

  // Appends one SegmentEntry per active segment of the VD: the segment reads
  // the VD's delivered series (source index = VD id), scaled per op by the
  // spatial model's weight, 0.0 for an op whose traffic never reaches it.
  void AppendSegmentEntries(std::vector<SegmentEntry>* entries) const;

  VdId vd_id() const { return vd_.id; }

 private:
  const Fleet& fleet_;
  const WorkloadConfig& config_;
  const Vd& vd_;
  const AppProfile& profile_;
  const LatencyModel& latency_model_;
  bool subsecond_cluster_ = false;
  VdStreamTargets targets_;

  // Scenario multiplier timeline (nullptr = untouched VD). The cursor walks
  // the pieces as Step's t increases.
  const scenario::CompiledVdCurve* scenario_curve_ = nullptr;
  size_t scenario_cursor_ = 0;

  Rng rng_;
  VdSpatialModel spatial_;
  TimeSeries read_series_;
  TimeSeries write_series_;
  std::vector<double> qp_read_;
  std::vector<double> qp_write_;
  bool read_churn_ = false;
  std::vector<size_t> read_active_qps_ = {0};
  bool read_was_active_ = false;
  double read_io_median_ = 0.0;
  double write_io_median_ = 0.0;
  double cap_bps_ = 0.0;
  double cap_iops_ = 0.0;
};

// Appends the traffic streams of one VM's active VDs, in VD order, to
// *streams, consuming the VM-level randomness (active flags, volumes, VD
// Dirichlet split). qp_series / offered_vd / delivered_vd / vd_truth must be
// pre-sized to the fleet; only this VM's slots are written. Each stream's
// segment entries are appended to *segment_entries. `scenario` may be nullptr
// (no scenario); when set, each stream picks up its VD's compiled multiplier
// curve.
void BuildVmStreams(const Fleet& fleet, const WorkloadConfig& config, const Vm& vm,
                    const RateProcessGenerator& temporal, const LatencyModel& latency_model,
                    const Rng& root, std::vector<RwSeries>* qp_series,
                    std::vector<RwSeries>* offered_vd, std::vector<RwSeries>* delivered_vd,
                    std::vector<VdGroundTruth>* vd_truth,
                    std::vector<SegmentEntry>* segment_entries,
                    const scenario::ScenarioModel* scenario,
                    std::vector<std::unique_ptr<VdTrafficStream>>* streams);

}  // namespace ebs

#endif  // SRC_WORKLOAD_VD_STREAM_H_
