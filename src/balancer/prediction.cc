#include "src/balancer/prediction.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "src/ml/arima.h"
#include "src/ml/attention.h"
#include "src/ml/gbt.h"
#include "src/ml/predictor.h"
#include "src/util/stats.h"

namespace ebs {

std::vector<std::vector<double>> BsPeriodTraffic(const Fleet& fleet,
                                                 const MetricDataset& metrics,
                                                 StorageClusterId cluster,
                                                 size_t period_steps) {
  if (period_steps == 0) {
    throw std::invalid_argument("BsPeriodTraffic: period_steps must be >= 1");
  }
  if (cluster.value() >= fleet.storage_clusters.size()) {
    throw std::invalid_argument("BsPeriodTraffic: unknown storage cluster");
  }
  const StorageCluster& sc = fleet.storage_clusters[cluster.value()];
  const size_t periods = metrics.window_steps / period_steps;

  std::vector<std::vector<double>> bs_series;
  std::vector<int> slot_of_bs(fleet.block_servers.size(), -1);
  for (const StorageNodeId node_id : sc.nodes) {
    const BlockServerId bs = fleet.storage_nodes[node_id.value()].block_server;
    slot_of_bs[bs.value()] = static_cast<int>(bs_series.size());
    bs_series.emplace_back(periods, 0.0);
  }

  // Accumulate in ascending segment-id order (SegmentSeriesMap's only
  // iteration order): the += into a BS slot sums doubles, and float addition
  // order changes the low bits — an insertion-order walk would make the
  // prediction input depend on the map's population history (batch vs
  // streaming differ).
  const SegmentSeriesMap& segments = metrics.segment_series;
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentView series = segments[i];
    const int slot = slot_of_bs[fleet.segments[series.id].server.value()];
    if (slot < 0) {
      continue;
    }
    for (size_t p = 0; p < periods; ++p) {
      double sum = 0.0;
      const size_t begin = p * period_steps;
      for (size_t t = begin; t < begin + period_steps && t < series.steps(); ++t) {
        sum += series.Bytes(OpType::kWrite, t);
      }
      bs_series[static_cast<size_t>(slot)][p] += sum;
    }
  }

  // Drop idle BSs and normalize by each BS's own mean.
  std::vector<std::vector<double>> out;
  for (auto& series : bs_series) {
    const double mean = Mean(series);
    if (mean <= 0.0) {
      continue;
    }
    for (double& v : series) {
      v /= mean;
    }
    out.push_back(std::move(series));
  }
  return out;
}

namespace {

// Drives a per-entity SeriesPredictor family over the period matrix.
PredictionResult RunPerEntity(
    const std::vector<std::vector<double>>& series, size_t warmup, const std::string& name,
    const std::function<std::unique_ptr<SeriesPredictor>()>& factory, double refits_per_entity) {
  PredictionResult result;
  result.name = name;
  RunningStats errors;
  for (const auto& entity : series) {
    auto predictor = factory();
    for (size_t t = 0; t < entity.size(); ++t) {
      if (t >= warmup) {
        const double prediction = predictor->PredictNext();
        const double err = prediction - entity[t];
        errors.Add(err * err);
      }
      predictor->Observe(entity[t]);
    }
  }
  result.mse = errors.mean();
  result.refits = refits_per_entity * static_cast<double>(series.size());
  return result;
}

PredictionResult RunAttention(const std::vector<std::vector<double>>& series, size_t warmup,
                              bool per_period, const PredictionExperimentConfig& config) {
  PredictionResult result;
  result.name = per_period ? "P5-attention-per-period" : "P4-attention-per-epoch";
  if (series.empty()) {
    return result;
  }
  const size_t periods = series.front().size();

  AttentionOptions options;
  options.seed = config.seed;
  AttentionForecaster model(series.size(), options);

  RunningStats errors;
  double refits = 0.0;
  for (size_t t = 0; t < periods; ++t) {
    if (t >= warmup) {
      for (size_t e = 0; e < series.size(); ++e) {
        const double err = model.PredictNext(e) - series[e][t];
        errors.Add(err * err);
      }
    }
    std::vector<double> observed(series.size());
    for (size_t e = 0; e < series.size(); ++e) {
      observed[e] = series[e][t];
    }
    model.Observe(observed);

    // Both regimes retrain from scratch at epoch boundaries; the per-period
    // regime additionally fine-tunes on the freshest windows every period
    // (the §6.1.3 recommendation).
    const bool epoch_boundary =
        t > 0 && t % static_cast<size_t>(config.epoch_periods) == 0;
    if (epoch_boundary || (!model.fitted() && t + 1 >= static_cast<size_t>(options.context) + 1)) {
      model.FitFull();
      refits += 1.0;
    } else if (per_period && model.fitted()) {
      model.FineTune();
      refits += 0.1;  // fine-tune cost ~ a tenth of a full fit
    }
  }
  result.mse = errors.mean();
  result.refits = refits;
  return result;
}

}  // namespace

std::vector<PredictionResult> RunPredictionExperiment(
    const Fleet& fleet, const MetricDataset& metrics, StorageClusterId cluster,
    const PredictionExperimentConfig& config) {
  if (config.period_steps == 0) {
    throw std::invalid_argument("prediction: period_steps must be >= 1");
  }
  if (config.epoch_periods <= 0) {
    throw std::invalid_argument("prediction: epoch_periods must be >= 1");
  }
  const std::vector<std::vector<double>> series =
      BsPeriodTraffic(fleet, metrics, cluster, config.period_steps);
  std::vector<PredictionResult> results;
  if (series.empty()) {
    return results;
  }
  const size_t periods = series.front().size();
  const double period_refits = static_cast<double>(periods);

  results.push_back(RunPerEntity(series, config.warmup_periods, "P1-linear-fit", [] {
    return MakeLinearFitPredictor(4);
  }, period_refits));

  results.push_back(RunPerEntity(series, config.warmup_periods, "P2-arima", [] {
    ArimaOptions options;
    options.train_window = 96;
    return MakeArimaPredictor(options);
  }, period_refits));

  results.push_back(RunPerEntity(series, config.warmup_periods, "P3-gbt-per-epoch",
                                 [&config] {
                                   GbtOptions options;
                                   options.refit_every = config.epoch_periods;
                                   return MakeGbtPredictor(options);
                                 },
                                 static_cast<double>(periods / config.epoch_periods + 1)));

  results.push_back(RunAttention(series, config.warmup_periods, /*per_period=*/false, config));
  results.push_back(RunAttention(series, config.warmup_periods, /*per_period=*/true, config));
  return results;
}

}  // namespace ebs
