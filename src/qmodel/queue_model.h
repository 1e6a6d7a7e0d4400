// Discrete-event queueing backend: tail latency under skew.
//
// The additive component latency model (src/topology/latency.h) makes an IO's
// latency independent of every other IO, so the repo could reproduce the
// paper's *traffic* skew but not its *latency* consequences. This subsystem
// is the opt-in second mode: per-WT and per-BS FIFO service queues with
// configurable service rates and capacity, driven by a deterministic
// discrete-event loop over the sampled IO stream, producing per-VD and
// per-tenant latency distributions (P50/P99/P999) and SLO-violation counters.
//
// Request lifecycle (one sampled IO):
//
//   submit --[admission (optional per-VD rate cap)]--> compute-node slice
//     --> WT queue (FIFO, capacity, service = per-IO cost + bytes/rate)
//     --> frontend network slice (+ fault retry/failover wait, if any)
//     --> BS queue (FIFO, capacity, service = per-IO cost + bytes/rate)
//     --> backend delay stage (additive BS+backend+CS slices; infinite-server)
//     --> complete
//
// The BS queue covers the block server's own processing; the media path
// behind it (backend network + chunk servers) is modeled as an
// infinite-server delay — it stretches latency but holds no queue slot, so a
// fault-inflated chunk-server slice storms the tail directly while queueing
// storms come from load concentration (skew, failover).
//
// Sampling upscale: the trace stream is thinned at `sampling_rate`, so each
// sampled IO stands for 1/sampling_rate real ones. A server's clock advances
// by the *batch* occupancy (single-IO service x upscale) while the sampled
// IO's own latency only includes its single-IO service — queueing delay then
// reflects full-scale utilization without inflating per-IO service time.
//
// Determinism: the model consumes the canonical merged stream order
// (timestamp, vd, sequence) and breaks every event-time tie with
// (time, stage, vd, sequence). No wall clock, no RNG, no threads anywhere in
// the loop (tools/ebs_lint enforces this for src/qmodel specifically), so for
// a fixed input stream the result is bit-identical — batch, streaming at any
// worker count, and store replay all fingerprint the same.

#ifndef SRC_QMODEL_QUEUE_MODEL_H_
#define SRC_QMODEL_QUEUE_MODEL_H_

#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/qmodel/latency_hist.h"
#include "src/topology/fleet.h"
#include "src/topology/latency.h"
#include "src/trace/records.h"

namespace ebs {
namespace qmodel {

// How IOs pick their worker thread.
enum class WtDispatch : uint8_t {
  kRecordBinding = 0,  // the record's QP->WT binding (production behavior)
  // Per-IO dispatch to the least-loaded WT of the same compute node (the §4.4
  // "hardware dispatch" what-if). Deterministic: earliest possible start
  // wins, lowest WT id breaks ties.
  kLeastLoadedInNode,
};

struct QueueServerConfig {
  double bytes_per_sec = 0.0;  // full-scale service bandwidth of one server
  double per_io_us = 0.0;      // fixed per-IO service cost (single IO)
  // Queue capacity as a backlog bound: an arrival that would wait longer than
  // this sheds instead — it completes at arrival + overflow_penalty_us
  // without consuming service, and counts as an overflow (+ SLO violation).
  // A time bound (not an IO count) stays meaningful under the sampling
  // upscale, where one sampled IO occupies the server for a whole batch.
  double queue_capacity_us = 0.0;
};

struct SloConfig {
  double read_us = 2000.0;
  double write_us = 4000.0;
};

struct QueueModelConfig {
  // Off by default: the fast additive model stays the default everywhere
  // (calibration tests never see the queueing backend).
  bool enabled = false;

  // Defaults calibrated so DcPreset-scale fleets run hot-but-stable: the
  // hottest WTs/BSs sit near saturation (that is where skew turns into tail
  // latency) while the fleet median stays comfortable.
  QueueServerConfig wt{.bytes_per_sec = 16.0e9, .per_io_us = 4.0, .queue_capacity_us = 20000.0};
  QueueServerConfig bs{.bytes_per_sec = 12.0e9, .per_io_us = 5.0, .queue_capacity_us = 50000.0};

  // Extra multiplier on the upscaled occupancy (what-if load scaling).
  double load_scale = 1.0;
  // Latency charged to an IO shed by a full queue. Kept above the queue
  // capacities so shedding never reads cheaper than the wait it displaced
  // (otherwise a lossy server would look like a tail-latency mitigation).
  double overflow_penalty_us = 25000.0;
  // Media time of a compute-node cache hit (mirrors LatencyModelConfig).
  double flash_read_us = 18.0;
  SloConfig slo;
  // Used to strip the client-side retry/backoff wait (which the fault driver
  // folded into the record's BlockServer slice) back out of BS *occupancy*:
  // a dead-target wait burns the client's time, not the surviving server's.
  RetryPolicy retry;
  WtDispatch dispatch = WtDispatch::kRecordBinding;

  // Optional what-ifs for mitigation studies (empty = disabled):
  // per-segment BS remap (index SegmentId -> BlockServerId value, kNoRemap to
  // keep the record's placement) — predicted segment migration;
  std::vector<uint32_t> segment_bs_remap;
  // per-VD admission rate cap in bytes/sec (<=0 entries uncapped) — throttle
  // / lending studies route their cap math through this.
  std::vector<double> vd_admission_bytes_per_sec;

  static constexpr uint32_t kNoRemap = 0xFFFFFFFFu;
};

struct ServerLoadStat {
  double busy_us = 0.0;       // upscaled occupancy accumulated
  uint64_t served = 0;        // sampled IOs that got service here
  uint64_t overflows = 0;     // sampled IOs shed by a full queue
  uint64_t max_depth = 0;     // peak IOs in system (full-scale estimate)
};

struct VdLatencySummary {
  uint64_t count = 0;
  double sum_us = 0.0;
  double max_us = 0.0;
  uint64_t slo_violations = 0;
};

struct QueueModelResult {
  uint64_t events = 0;
  double window_seconds = 0.0;

  LatencyHist total_us;  // all IOs
  LatencyHist read_us;
  LatencyHist write_us;
  std::vector<LatencyHist> tenant_us;    // by UserId
  std::vector<VdLatencySummary> vd;      // by VdId
  std::vector<ServerLoadStat> wt;        // by WorkerThreadId
  std::vector<ServerLoadStat> bs;        // by BlockServerId

  uint64_t slo_violations_read = 0;
  uint64_t slo_violations_write = 0;
  uint64_t wt_overflows = 0;
  uint64_t bs_overflows = 0;
  // Sum of pure waiting (queueing delay, both stages) across IOs.
  double queue_wait_sum_us = 0.0;

  // busy_us / window for the hottest server of each tier.
  double MaxWtUtilization() const;
  double MaxBsUtilization() const;
  uint64_t SloViolations() const { return slo_violations_read + slo_violations_write; }

  // FNV-1a over every histogram, summary and counter — two equal fingerprints
  // mean the whole latency product is bit-identical.
  uint64_t Fingerprint() const;
};

// Running snapshot of the SLO-relevant counters, exported mid-run for the
// closed-loop control plane (src/control). Every field is a pure function of
// the events completed so far, so two runs that agree on the arrival stream
// and the AdvanceTo schedule agree on every snapshot bit for bit.
struct QueueInterimStats {
  uint64_t events = 0;           // IOs completed so far
  uint64_t slo_violations = 0;   // read + write violations so far
  uint64_t overflows = 0;        // WT + BS sheds so far
  double p99_us = 0.0;           // interpolated P99 of completions so far
};

// Empty when `config` can run; otherwise the first problem found: a WT or
// BS service rate, per-IO cost or queue capacity, the overflow penalty, the
// flash read time or an SLO target that is negative or not finite, or a
// load_scale that is not finite and positive.
std::string ValidateQueueModelConfig(const QueueModelConfig& config);

// The event-driven simulator. Feed IOs in the canonical merged-stream order
// (timestamp, vd, sequence) — the replay engine's sink order, which every
// batch dataset already has (TraceRecordBefore) — then call Finish().
class QueueSimulator {
 public:
  // `sampling_rate` is the trace thinning rate (WorkloadConfig::sampling_rate)
  // driving the occupancy upscale; `window_seconds` the observation window.
  // Throws std::invalid_argument when ValidateQueueModelConfig rejects
  // `config` or a per-segment or per-VD table does not cover the fleet, and
  // std::out_of_range when segment_bs_remap names a block server the fleet
  // does not have.
  QueueSimulator(const Fleet& fleet, const QueueModelConfig& config, double sampling_rate,
                 double window_seconds);

  // `sequence` is the per-VD emission index (ReplayEvent::sequence).
  // `cn_cache_hit` short-circuits the IO after the WT stage (compute-node
  // cache hit: flash media time instead of the whole storage path).
  void Arrive(const TraceRecord& record, uint64_t sequence, bool cn_cache_hit = false);

  // Processes every queued event with virtual time <= time_us. Arrive already
  // drains to each IO's submit time; the control plane calls this at period
  // boundaries to settle all in-flight work before reading Interim(). Legal
  // because processing order is fixed by the event heap's total order —
  // draining early executes exactly the events a later Arrive would have, in
  // the same order, so results are unchanged.
  void AdvanceTo(double time_us) { DrainUntil(time_us); }

  // Snapshot of the completions so far (see QueueInterimStats). Typically
  // preceded by AdvanceTo so the snapshot reflects a fixed virtual-time
  // horizon rather than the last arrival.
  QueueInterimStats Interim() const;

  // --- Online what-if actuation (closed-loop control) -----------------------
  // Re-homes one segment's BS for IOs arriving from now on (kNoRemap restores
  // the record's own placement). Lazily materializes the remap table. Throws
  // std::out_of_range on an unknown segment or BS id.
  void SetSegmentRemap(SegmentId segment, uint32_t bs);
  // Caps (rate > 0) or uncaps (rate <= 0) one VD's admission rate for IOs
  // arriving from now on. Throws std::out_of_range on an unknown VD.
  void SetVdAdmissionRate(VdId vd, double bytes_per_sec);

  // Drains every in-flight event and returns the final result. Call once.
  QueueModelResult Finish();

 private:
  enum class Stage : uint8_t { kWtArrival = 0, kBsArrival = 1 };

  struct InFlight {
    double submit_us = 0.0;        // original submission time
    double size_bytes = 0.0;
    OpType op = OpType::kRead;
    uint32_t vd = 0;
    uint32_t user = 0;
    uint32_t wt = 0;
    uint32_t bs = 0;
    double frontend_us = 0.0;      // frontend-network slice
    // Delay-stage basis: the record's BS+backend+CS slices (the additive
    // model's no-contention path cost), retry wait stripped. Charged to
    // latency after BS service, never to occupancy.
    double bs_basis_us = 0.0;
    double retry_wait_us = 0.0;    // client-side retry/backoff (latency only)
    bool cn_cache_hit = false;
    bool fault_timed_out = false;
  };

  struct Event {
    double time_us = 0.0;
    Stage stage = Stage::kWtArrival;
    uint32_t vd = 0;
    uint64_t sequence = 0;
    InFlight io;
  };
  // Min-heap order with the determinism tie-break (time, stage, vd, sequence).
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_us != b.time_us) {
        return a.time_us > b.time_us;
      }
      if (a.stage != b.stage) {
        return a.stage > b.stage;
      }
      if (a.vd != b.vd) {
        return a.vd > b.vd;
      }
      return a.sequence > b.sequence;
    }
  };

  struct ServerState {
    // Departure times of IO batches in system, ascending. back() is the
    // server's next-free time; entries with departure <= now have left.
    std::deque<double> departures;
    ServerLoadStat stat;
  };

  void DrainUntil(double time_us);
  void ProcessWtArrival(const Event& event);
  void ProcessBsArrival(const Event& event);
  void Complete(const InFlight& io, double completion_us);
  // Pops departed entries and returns the in-system count at `now_us`.
  static uint64_t Depth(ServerState* server, double now_us);
  uint32_t DispatchWt(const InFlight& io, double arrival_us) const;

  const Fleet& fleet_;
  QueueModelConfig config_;
  double upscale_;            // load_scale / sampling_rate
  double window_us_;

  std::vector<ServerState> wt_;
  std::vector<ServerState> bs_;
  std::vector<double> vd_admission_free_us_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  QueueModelResult result_;
  bool finished_ = false;

  // Mirrored into the global registry for RunReport export; no-ops while the
  // registry is disabled, and never feeds back into the model.
  obs::ObsHistogram* obs_latency_;
  obs::Counter* obs_events_;
  obs::Counter* obs_slo_violations_;
  obs::Counter* obs_overflows_;
};

// Batch entry point: runs the simulator over `traces`, which must be in the
// canonical order (TraceRecordBefore) every producer emits; throws
// std::invalid_argument otherwise. Per-VD sequences are assigned in that
// order. `cn_cache_hits`, when non-null, flags cache-hit records by their
// index in traces.records.
QueueModelResult RunOverTraces(const Fleet& fleet, const QueueModelConfig& config,
                               const TraceDataset& traces, double window_seconds,
                               const std::vector<uint8_t>* cn_cache_hits = nullptr);

}  // namespace qmodel
}  // namespace ebs

#endif  // SRC_QMODEL_QUEUE_MODEL_H_
