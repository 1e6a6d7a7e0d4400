// Fig 4(c): accuracy of the five traffic predictors on per-BS traffic.
//
//   P1 linear fit (refit per period)       P2 ARIMA (refit per period)
//   P3 GBT / "XGBoost" (refit per epoch)   P4 attention (refit per epoch)
//   P5 attention (fine-tuned per period)
//
// Each BS's write traffic is bucketed into balancer periods and normalized by
// its own mean, so the pooled MSE is scale-free and comparable across
// predictors.

#ifndef SRC_BALANCER_PREDICTION_H_
#define SRC_BALANCER_PREDICTION_H_

#include <string>
#include <vector>

#include "src/topology/fleet.h"
#include "src/trace/records.h"

namespace ebs {

struct PredictionExperimentConfig {
  size_t period_steps = 5;   // smaller than the balancer period: more samples
  size_t warmup_periods = 16;
  int epoch_periods = 60;    // P3/P4 retraining cadence
  uint64_t seed = 17;
};

struct PredictionResult {
  std::string name;
  double mse = 0.0;          // pooled normalized MSE
  double refits = 0.0;       // total model (re)fits, the cost side of Fig 4(c)
};

// Builds per-BS period traffic for one storage cluster (static assignment).
// Only BSs with non-zero traffic are returned. Throws std::invalid_argument
// on a zero period_steps or a cluster the fleet does not have.
std::vector<std::vector<double>> BsPeriodTraffic(const Fleet& fleet,
                                                 const MetricDataset& metrics,
                                                 StorageClusterId cluster,
                                                 size_t period_steps);

// Runs P1..P5 on the cluster and returns one result per predictor. Throws
// std::invalid_argument on a zero period_steps or a non-positive
// epoch_periods.
std::vector<PredictionResult> RunPredictionExperiment(const Fleet& fleet,
                                                      const MetricDataset& metrics,
                                                      StorageClusterId cluster,
                                                      const PredictionExperimentConfig& config);

}  // namespace ebs

#endif  // SRC_BALANCER_PREDICTION_H_
