#include "src/analysis/skewness.h"

#include <algorithm>

#include "src/util/parallel.h"
#include "src/util/stats.h"

namespace ebs {

ChannelFold FoldChannel(std::span<const double> values) {
  if (values.empty()) {
    return {};
  }
  double total = 0.0;
  double peak = values[0];
  for (const double value : values) {
    total += value;
    if (peak < value) {
      peak = value;
    }
  }
  const double mean = total / static_cast<double>(values.size());
  return {total, peak, mean <= 0.0 ? 0.0 : peak / mean};
}

namespace {

// The series steps one chunk of entities reads before the next chunk starts.
// A level under one chunk reads on the calling thread and starts no thread.
constexpr size_t kChunkSteps = size_t{1} << 16;

// folds[k][e] is entity e's fold of its `ops[k]` bytes. Entities are read in
// chunks of about kChunkSteps series steps on ForEachChunk's helpers; a chunk
// writes only its own entities' folds.
std::vector<std::vector<ChannelFold>> FoldEntities(std::span<const RwSeries> entities,
                                                   std::span<const OpType> ops) {
  std::vector<std::vector<ChannelFold>> folds(ops.size(),
                                              std::vector<ChannelFold>(entities.size()));
  ForEachChunk(
      entities.size(), kChunkSteps,
      [&](size_t e) {
        size_t steps = 0;
        for (const OpType op : ops) {
          steps += entities[e].Bytes(op).size();
        }
        return steps;
      },
      [&](size_t first, size_t last) {
        for (size_t e = first; e < last; ++e) {
          for (size_t k = 0; k < ops.size(); ++k) {
            folds[k][e] = FoldChannel(entities[e].Bytes(ops[k]).values());
          }
        }
      });
  return folds;
}

std::vector<double> Totals(std::span<const ChannelFold> folds) {
  std::vector<double> totals;
  totals.reserve(folds.size());
  for (const ChannelFold& fold : folds) {
    totals.push_back(fold.total);
  }
  return totals;
}

// The P2A of every entity with traffic; idle entities carry no sample.
std::vector<double> ActiveP2a(std::span<const ChannelFold> folds) {
  std::vector<double> p2a;
  for (const ChannelFold& fold : folds) {
    if (fold.p2a > 0.0) {
      p2a.push_back(fold.p2a);
    }
  }
  return p2a;
}

}  // namespace

std::vector<double> EntityTotals(std::span<const RwSeries> entities, OpType op) {
  return Totals(FoldEntities(entities, {&op, 1})[0]);
}

std::vector<double> EntityP2a(std::span<const RwSeries> entities, OpType op) {
  return ActiveP2a(FoldEntities(entities, {&op, 1})[0]);
}

LevelSkewness ComputeLevelSkewness(std::span<const RwSeries> entities) {
  constexpr OpType kOps[] = {OpType::kRead, OpType::kWrite};
  const std::vector<std::vector<ChannelFold>> folds = FoldEntities(entities, kOps);
  LevelSkewness out;
  for (const OpType op : kOps) {
    const int i = static_cast<int>(op);
    const std::vector<double> totals = Totals(folds[i]);
    out.ccr1[i] = Ccr(totals, 0.01);
    out.ccr20[i] = Ccr(totals, 0.20);
    out.p2a50[i] = Percentile(ActiveP2a(folds[i]), 50.0);
  }
  return out;
}

std::vector<AppSkewness> ComputeAppSkewness(const Fleet& fleet,
                                            std::span<const RwSeries> vm_series) {
  std::vector<AppSkewness> out(kAppTypeCount);
  RwPair fleet_total = {};
  std::array<std::vector<double>, kAppTypeCount> read_totals;
  std::array<std::vector<double>, kAppTypeCount> write_totals;

  for (const Vm& vm : fleet.vms) {
    const RwSeries& series = vm_series[vm.id.value()];
    const double read = series.read_bytes.SumAll();
    const double write = series.write_bytes.SumAll();
    const int app = static_cast<int>(vm.app);
    read_totals[app].push_back(read);
    write_totals[app].push_back(write);
    fleet_total[0] += read;
    fleet_total[1] += write;
  }

  for (int app = 0; app < kAppTypeCount; ++app) {
    AppSkewness& row = out[app];
    row.app = static_cast<AppType>(app);
    row.ccr1 = {Ccr(read_totals[app], 0.01), Ccr(write_totals[app], 0.01)};
    row.ccr20 = {Ccr(read_totals[app], 0.20), Ccr(write_totals[app], 0.20)};
    const double app_read = Sum(read_totals[app]);
    const double app_write = Sum(write_totals[app]);
    row.traffic_share = {fleet_total[0] > 0.0 ? app_read / fleet_total[0] : 0.0,
                         fleet_total[1] > 0.0 ? app_write / fleet_total[1] : 0.0};
  }
  return out;
}

double WindowNormalizedCoV(std::span<const RwSeries> entities, OpType op, size_t begin,
                           size_t end) {
  std::vector<double> totals;
  totals.reserve(entities.size());
  for (const RwSeries& e : entities) {
    const TimeSeries& series = e.Bytes(op);
    double sum = 0.0;
    for (size_t t = begin; t < end && t < series.size(); ++t) {
      sum += series[t];
    }
    totals.push_back(sum);
  }
  return NormalizedCoV(totals);
}

double WriteToReadRatio(double write, double read) {
  const double total = write + read;
  if (total <= 0.0) {
    return 0.0;
  }
  return (write - read) / total;
}

}  // namespace ebs
