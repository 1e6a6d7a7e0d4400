// Inter-BlockServer load balancer (§6, Appendix A: Algorithm 1).
//
// The balancer runs per storage cluster in fixed periods. Each period it
// computes every BS's traffic, flags exporters above `exporter_threshold` x
// the cluster average, peels off their hottest segments until the migrated
// sum exceeds `migration_budget` x average, and ships them to an importer
// chosen by a pluggable policy:
//   S1 Random        — any other BS;
//   S2 MinTraffic    — lowest current-period traffic (production heuristic);
//   S3 MinVariance   — lowest traffic variance over past periods;
//   S4 Lunule        — lowest *linear-fit predicted* next-period traffic;
//   S5 Ideal         — lowest actual next-period traffic (oracle);
//   S6 Predictive    — lowest forecast from an injected SeriesPredictor
//                      (ARIMA / GBT / attention), the §6.1.3 proposal.
// By default only write traffic drives migration (§2.2); the Write-then-Read
// mode of §6.2.2 runs a second pass balancing read traffic.

#ifndef SRC_BALANCER_BALANCER_H_
#define SRC_BALANCER_BALANCER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/fault/driver.h"
#include "src/ml/predictor.h"
#include "src/topology/fleet.h"
#include "src/trace/records.h"
#include "src/util/rng.h"

namespace ebs {

enum class ImporterPolicy : uint8_t {
  kRandom = 0,
  kMinTraffic,
  kMinVariance,
  kLunule,
  kIdeal,
  kPredictive,
  // Forecast at *segment* granularity (EWMA per segment), then sum under the
  // current assignment — the composition-aware forecast a per-BS model cannot
  // express, and the practical approximation of kIdeal.
  kSegmentForecast,
};
const char* ImporterPolicyName(ImporterPolicy policy);

struct BalancerConfig {
  size_t period_steps = 30;
  double exporter_threshold = 1.2;
  double migration_budget = 0.2;
  ImporterPolicy policy = ImporterPolicy::kMinTraffic;
  bool migrate_reads = false;  // Write-then-Read when true
  bool enforce_vd_spread = true;  // importer must not host a sibling segment
  uint64_t seed = 1;
  // Factory for S6; called once per BlockServer.
  std::function<std::unique_ptr<SeriesPredictor>()> predictor_factory;
  double segment_ewma_alpha = 0.5;  // S7 smoothing factor, in [0, 1]

  // Optional fault awareness (not owned; nullptr = healthy fleet). When set,
  // each period first force-migrates every segment whose BS is down at the
  // period start (failure-triggered re-replication), and importer selection
  // never targets a down BS.
  const FaultDriver* faults = nullptr;
};

struct Migration {
  SegmentId segment;
  BlockServerId from;
  BlockServerId to;
  size_t period = 0;
  OpType basis = OpType::kWrite;  // which pass triggered it
  bool forced = false;            // failure-triggered, not load-triggered
};

struct BalancerResult {
  std::vector<Migration> migrations;
  size_t periods = 0;
  size_t forced_migrations = 0;  // subset of migrations with forced=true
  // Per-period inter-BS traffic CoV under the live assignment.
  std::vector<double> write_cov;
  std::vector<double> read_cov;
};

// Runs the balancer over one storage cluster of the fleet.
class InterBsBalancer {
 public:
  // Throws std::invalid_argument on a cluster the fleet does not have, a
  // zero period_steps, an exporter_threshold or migration_budget that is not
  // finite and non-negative, or a segment_ewma_alpha that is NaN or outside
  // [0, 1].
  InterBsBalancer(const Fleet& fleet, const MetricDataset& metrics, StorageClusterId cluster,
                  BalancerConfig config);

  BalancerResult Run();

 private:
  struct SegmentState {
    SegmentId id;
    VdId vd;
    uint32_t bs_slot = 0;  // index into bs_ids_
  };

  // Traffic of one segment in one period for one op.
  double SegmentPeriodTraffic(size_t segment_slot, size_t period, OpType op) const;
  // Runs one balancing pass (write or read basis) for a period.
  void BalancePass(size_t period, OpType op, std::vector<double>& bs_traffic,
                   BalancerResult& result);
  // Failure-triggered pass: evacuates every segment whose BS is down at the
  // period start onto the least-loaded healthy BS (spread-preserving when
  // possible). No-op without config.faults.
  void ForcedMigrationPass(size_t period, std::vector<double>& bs_traffic,
                           BalancerResult& result);
  // Slots whose BS is down at the period's first step (empty when healthy).
  std::vector<uint32_t> DownSlots(size_t period) const;
  uint32_t PickImporter(size_t period, OpType op, uint32_t exporter_slot, VdId vd,
                        const std::vector<double>& bs_traffic);

  const Fleet& fleet_;
  const MetricDataset& metrics_;
  BalancerConfig config_;
  Rng rng_;

  std::vector<BlockServerId> bs_ids_;
  std::vector<SegmentState> segments_;        // active segments in this cluster
  std::vector<std::vector<double>> history_;  // per-BS past-period traffic (write)
  std::vector<std::unique_ptr<SeriesPredictor>> predictors_;
  std::vector<double> segment_ewma_;  // S7: per-segment traffic forecast
  size_t periods_ = 0;
};

// Fig 4(a): fraction of migrations that are "frequent" — their BS has both an
// incoming and an outgoing migration within the same window of
// `window_periods` periods. Throws std::invalid_argument on a zero window.
double FrequentMigrationProportion(const std::vector<Migration>& migrations,
                                   size_t window_periods);

// Fig 4(b): normalized intervals between consecutive migrations of the same
// segment (interval / total periods).
std::vector<double> MigrationIntervals(const std::vector<Migration>& migrations,
                                       size_t total_periods);

}  // namespace ebs

#endif  // SRC_BALANCER_BALANCER_H_
