// Fleet-tier scale sweep: throughput and memory of trace aggregation and the
// rollups as the fleet grows, and worker-count invariance of the streaming
// engine.
//
// Two scenario families, one JSON (BENCH_SCALE.json):
//
//   agg_<tier>      batch generation + trace aggregation at three fleet
//                   tiers. Generation runs through GenerateWorkloadParallel
//                   (the ReplayShard path, 4 workers) — generation, not
//                   aggregation, was the sweep's wall, and the parallel
//                   output is worker-count invariant, which is what lets the
//                   largest tier grow while the sweep stays CI-sized.
//                   Times trace aggregation (vector-indexed qp series +
//                   SegmentSeriesMap slots) and the seven RollupTo* folds,
//                   and records the per-record memory, which must stay flat
//                   across tiers.
//
//   workers_<n>     the same medium-tier config through StreamingSimulation
//                   at 1/2/4 worker threads. The VD/BS rollup fingerprints
//                   must be identical across worker counts — the bench exits
//                   nonzero on any divergence, so worker-sweep determinism
//                   is enforced here, not just in ctest.
//
// Field conventions (scripts/check_bench.py): plain numeric fields are
// deterministic functions of the seed and gate CI against the committed
// BENCH_SCALE.json baseline; "wall_"-prefixed fields are wall-clock
// measurements, machine-dependent, and never gate; "fingerprint" is
// informational.
//
// Usage: bench_scale [output.json]   (default BENCH_SCALE.json)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/replay/parallel_generate.h"
#include "src/obs/report.h"
#include "src/trace/aggregate.h"
#include "src/trace/records.h"
#include "src/util/table.h"
#include "src/workload/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct ScaleRow {
  std::string name;
  // Deterministic (gated) fields.
  uint64_t records = 0;
  uint64_t qps = 0;
  uint64_t vds = 0;
  uint64_t active_segments = 0;
  double total_gib = 0.0;
  double agg_bytes_per_record = 0.0;
  // Wall-clock (informational) fields.
  double wall_generate_s = 0.0;
  double wall_dense_agg_s = 0.0;
  double wall_dense_records_per_sec = 0.0;
  double wall_rollup_s = 0.0;
  uint64_t fingerprint = 0;
};

uint64_t FnvMix(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

uint64_t FingerprintSeries(uint64_t h, const std::vector<ebs::RwSeries>& rollup) {
  for (const ebs::RwSeries& series : rollup) {
    for (size_t t = 0; t < series.read_bytes.size(); ++t) {
      const double values[4] = {series.read_bytes[t], series.write_bytes[t],
                                series.read_ops[t], series.write_ops[t]};
      h = FnvMix(h, values, sizeof(values));
    }
  }
  return h;
}

constexpr size_t kGenerateThreads = 4;  // tier-sweep generation workers

double TotalGib(const ebs::MetricDataset& metrics) {
  double total = 0.0;
  for (const ebs::RwSeries& series : metrics.qp_series) {
    total += series.TotalBytes();
  }
  return total / (1024.0 * 1024.0 * 1024.0);
}

ScaleRow RunTier(const std::string& name, int user_count, size_t window_steps) {
  ebs::SimulationConfig config = ebs::DcPreset(1);
  config.fleet.user_count = user_count;
  config.workload.window_steps = window_steps;

  ScaleRow row;
  row.name = name;

  const ebs::Fleet fleet = ebs::BuildFleet(config.fleet);
  // Parallel batch generation (the ReplayShard path without the merge loop):
  // generation, not aggregation, is the tier sweep's wall, and the output is
  // worker-count invariant, so the sweep parallelizes without changing what
  // it measures.
  const auto gen_begin = Clock::now();
  const ebs::WorkloadResult result =
      ebs::GenerateWorkloadParallel(fleet, config.workload, kGenerateThreads);
  row.wall_generate_s = Seconds(gen_begin, Clock::now());

  const double step_seconds = result.metrics.step_seconds;

  // Trace aggregation, then all seven rollup levels.
  const auto dense_begin = Clock::now();
  const ebs::MetricDataset dense =
      ebs::AggregateTraces(fleet, result.traces, step_seconds, window_steps);
  row.wall_dense_agg_s = Seconds(dense_begin, Clock::now());

  const auto rollup_begin = Clock::now();
  const std::vector<ebs::RwSeries> vd = ebs::RollupToVd(fleet, dense);
  const std::vector<ebs::RwSeries> vm = ebs::RollupToVm(fleet, dense);
  const std::vector<ebs::RwSeries> user = ebs::RollupToUser(fleet, dense);
  const std::vector<ebs::RwSeries> wt = ebs::RollupToWt(fleet, dense);
  const std::vector<ebs::RwSeries> cn = ebs::RollupToComputeNode(fleet, dense);
  const std::vector<ebs::RwSeries> bs = ebs::RollupToBlockServer(fleet, dense);
  const std::vector<ebs::RwSeries> sn = ebs::RollupToStorageNode(fleet, dense);
  row.wall_rollup_s = Seconds(rollup_begin, Clock::now());

  row.records = result.traces.records.size();
  row.qps = fleet.qps.size();
  row.vds = fleet.vds.size();
  row.active_segments = dense.segment_series.size();
  row.total_gib = TotalGib(dense);
  // Metric-dataset footprint per trace record (four 8-byte channels per step
  // for every QP and active segment). Deterministic; staying flat across
  // tiers is the "memory scales with entities, not records" invariant.
  row.agg_bytes_per_record =
      static_cast<double>((row.qps + row.active_segments) * window_steps * 4 * 8) /
      static_cast<double>(row.records);
  row.wall_dense_records_per_sec =
      static_cast<double>(row.records) / row.wall_dense_agg_s;

  uint64_t h = 1469598103934665603ULL;
  h = FingerprintSeries(h, vd);
  h = FingerprintSeries(h, bs);
  (void)vm;
  (void)user;
  (void)wt;
  (void)cn;
  (void)sn;
  row.fingerprint = h;
  return row;
}

struct WorkerRow {
  std::string name;
  uint64_t workers = 0;
  uint64_t records = 0;
  double total_gib = 0.0;
  double wall_run_s = 0.0;
  uint64_t fingerprint = 0;
};

WorkerRow RunWorkers(size_t workers, int user_count, size_t window_steps) {
  ebs::SimulationConfig config = ebs::DcPreset(1);
  config.fleet.user_count = user_count;
  config.workload.window_steps = window_steps;
  ebs::ReplayOptions options;
  options.worker_threads = workers;

  WorkerRow row;
  row.name = "workers_" + std::to_string(workers);
  row.workers = workers;

  const auto begin = Clock::now();
  ebs::StreamingSimulation sim(config, options);
  sim.Run();
  row.wall_run_s = Seconds(begin, Clock::now());

  row.records = sim.traces().records.size();
  row.total_gib = TotalGib(sim.metrics());
  uint64_t h = 1469598103934665603ULL;
  h = FingerprintSeries(h, sim.VdSeries());
  h = FingerprintSeries(h, sim.BsSeries());
  row.fingerprint = h;
  return row;
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void AppendScaleJson(std::string* out, const ScaleRow& row) {
  *out += "{\"name\":\"" + row.name + "\"";
  *out += ",\"records\":" + std::to_string(row.records);
  *out += ",\"qps\":" + std::to_string(row.qps);
  *out += ",\"vds\":" + std::to_string(row.vds);
  *out += ",\"active_segments\":" + std::to_string(row.active_segments);
  *out += ",\"total_gib\":" + Num(row.total_gib);
  *out += ",\"agg_bytes_per_record\":" + Num(row.agg_bytes_per_record);
  *out += ",\"wall_generate_s\":" + Num(row.wall_generate_s);
  *out += ",\"wall_dense_agg_s\":" + Num(row.wall_dense_agg_s);
  *out += ",\"wall_dense_records_per_sec\":" + Num(row.wall_dense_records_per_sec);
  *out += ",\"wall_rollup_s\":" + Num(row.wall_rollup_s);
  *out += ",\"fingerprint\":\"" + Hex(row.fingerprint) + "\"}";
}

void AppendWorkerJson(std::string* out, const WorkerRow& row) {
  *out += "{\"name\":\"" + row.name + "\"";
  *out += ",\"workers\":" + std::to_string(row.workers);
  *out += ",\"records\":" + std::to_string(row.records);
  *out += ",\"total_gib\":" + Num(row.total_gib);
  *out += ",\"wall_run_s\":" + Num(row.wall_run_s);
  *out += ",\"fingerprint\":\"" + Hex(row.fingerprint) + "\"}";
}

bool WriteJson(const std::vector<ScaleRow>& tiers, const std::vector<WorkerRow>& workers,
               const std::string& path) {
  std::string json = "{\"bench\":\"scale\",\"scenarios\":[";
  bool first = true;
  for (const ScaleRow& row : tiers) {
    if (!first) {
      json += ",";
    }
    first = false;
    AppendScaleJson(&json, row);
  }
  for (const WorkerRow& row : workers) {
    json += ",";
    AppendWorkerJson(&json, row);
  }
  json += "]}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = std::ferror(file) == 0;
  return (std::fclose(file) == 0) && ok;
}

int Run(const std::string& out_path) {
  std::vector<ScaleRow> tiers;
  tiers.push_back(RunTier("agg_small", 60, 180));
  tiers.push_back(RunTier("agg_medium", 160, 180));
  tiers.push_back(RunTier("agg_large", 640, 180));

  std::vector<WorkerRow> workers;
  for (const size_t n : {1u, 2u, 4u}) {
    workers.push_back(RunWorkers(n, 160, 180));
  }
  ebs::PrintBanner(std::cout, "Streaming engine: worker-count invariance (medium tier)");
  ebs::TablePrinter sweep({"workers", "records", "GiB", "run s", "fingerprint"});
  for (const WorkerRow& row : workers) {
    sweep.AddRow({std::to_string(row.workers), std::to_string(row.records),
                  ebs::TablePrinter::Fmt(row.total_gib, 3), ebs::TablePrinter::Fmt(row.wall_run_s, 2),
                  Hex(row.fingerprint)});
  }
  sweep.Print(std::cout);
  for (const WorkerRow& row : workers) {
    if (row.fingerprint != workers.front().fingerprint || row.records != workers.front().records) {
      std::cerr << "bench_scale: worker-count divergence: " << row.name << " differs from "
                << workers.front().name << "\n";
      return 1;
    }
  }
  std::cout << "Rollup fingerprints identical at 1/2/4 workers.\n";

  if (!WriteJson(tiers, workers, out_path)) {
    std::cout << "bench_scale: failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "bench_scale: wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ebs::obs::InitRunReportFromEnv();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_SCALE.json";
  const int rc = Run(out_path);
  ebs::obs::EmitRunReport(std::cout);
  return rc;
}
