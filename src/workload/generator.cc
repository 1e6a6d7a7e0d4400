#include "src/workload/generator.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/fault/driver.h"
#include "src/scenario/model.h"
#include "src/trace/records.h"
#include "src/workload/vd_stream.h"

namespace ebs {

double WorkloadResult::TotalDeliveredBytes(OpType op) const {
  double total = 0.0;
  for (const RwSeries& series : metrics.qp_series) {
    total += series.Bytes(op).SumAll();
  }
  return total;
}

WorkloadGenerator::WorkloadGenerator(const Fleet& fleet, WorkloadConfig config)
    : fleet_(fleet), config_(config) {}

WorkloadResult WorkloadGenerator::Generate() const {
  WorkloadResult result;
  const size_t steps = config_.window_steps;
  const double dt = config_.step_seconds;

  result.metrics.step_seconds = dt;
  result.metrics.window_steps = steps;
  result.metrics.qp_series.assign(fleet_.qps.size(), RwSeries(steps, dt));
  result.offered_vd.assign(fleet_.vds.size(), RwSeries(steps, dt));
  result.vd_truth.assign(fleet_.vds.size(), VdGroundTruth{});
  result.traces.window_seconds = static_cast<double>(steps) * dt;
  result.traces.sampling_rate = config_.sampling_rate;

  const RateProcessGenerator temporal({steps, dt});
  const LatencyModel latency_model(config_.latency);
  Rng root(config_.seed);

  // Armed only when the schedule has events — the empty-schedule contract is
  // that this function's output is bit-identical to the pre-fault code path.
  std::optional<FaultDriver> faults;
  if (!config_.faults.empty()) {
    faults.emplace(fleet_, config_.faults, steps, dt);
  }

  // Same contract as faults: an empty scenario never builds a model, so the
  // stationary path stays bit-for-bit untouched.
  std::optional<scenario::ScenarioModel> scenario;
  if (!config_.scenario.empty()) {
    scenario.emplace(fleet_, config_.scenario, steps);
  }

  // The storage domain: one delivered series per VD, which every segment of
  // the VD reads through its SegmentEntry.
  std::vector<RwSeries>& delivered_vd =
      result.metrics.segment_series.ResetSources(fleet_.vds.size(), steps, dt);
  std::vector<SegmentEntry> segment_entries;

  // Every VM's randomness comes from root.Fork(vm.id), and every metric series
  // belongs to exactly one VD, so building the streams first and stepping them
  // afterwards produces bit-identical output to the original single-pass loop.
  for (const Vm& vm : fleet_.vms) {
    VmStreamSet streams =
        BuildVmStreams(fleet_, config_, vm, temporal, latency_model, root,
                       &result.metrics.qp_series, &result.offered_vd, &delivered_vd,
                       &result.vd_truth, &segment_entries, scenario ? &*scenario : nullptr);
    for (const auto& stream : streams.streams) {
      for (size_t t = 0; t < steps; ++t) {
        if (faults) {
          faults->CheckUnrecoverable(t);
        }
        stream->Step(t, &result.traces.records);
      }
    }
  }

  result.metrics.segment_series.AssignEntries(std::move(segment_entries));

  // Traces in the canonical order, as DiTing would emit them. Each VD's
  // records were appended contiguously in emission order, so the stable sort
  // yields exactly the replay engine's merged (timestamp, vd, sequence) stream.
  std::stable_sort(result.traces.records.begin(), result.traces.records.end(),
                   TraceRecordBefore);

  // Fault effects are a pure per-record transform, so applying them after the
  // sort matches the streaming engine's per-shard application bit for bit.
  if (faults) {
    if (faults->DegradedStepCount() == 0) {
      // Armed but idle: no step is degraded, so the transform is provably the
      // identity — account the IOs without a pass over the dataset (the
      // armed-idle overhead budget in bench_fault rides on this).
      result.faults.issued = result.traces.records.size();
      result.faults.completed = result.faults.issued;
    } else {
      for (TraceRecord& record : result.traces.records) {
        faults->Apply(&record, &result.faults);
      }
    }
    result.faults.degraded_steps = faults->DegradedStepCount();
  }
  return result;
}

}  // namespace ebs
