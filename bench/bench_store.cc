// EBST trace store: encode/decode throughput, on-disk footprint vs the trace
// CSV, and replay-from-store vs regenerate wall clock.
//
// The size table is the acceptance gate of the format: at export precision
// (the CSV exporters' own fidelity) the store must be >= 4x smaller than the
// equivalent traces.csv; the exact (bit-identical) encoding lands near 1.6x —
// five full-entropy f64 latency components per record put a hard floor under
// it. The replay table shows the point of recording at all: re-driving the
// sink pipeline from disk skips generation entirely, and the stream it
// delivers is fingerprint-identical to the generating run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/obs/report.h"
#include "src/trace/csv_export.h"
#include "src/trace/store.h"
#include "src/util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

uint64_t FileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return 0;
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  const bool stream_ok = std::ferror(file) == 0;
  const bool closed_ok = std::fclose(file) == 0;
  return (!stream_ok || !closed_ok || size < 0) ? 0 : static_cast<uint64_t>(size);
}

}  // namespace

int main() {
  ebs::obs::InitRunReportFromEnv();
  // The acceptance configuration: the default small fleet the store tests
  // use. The full DcPreset works too; this keeps the bench CI-fast.
  ebs::SimulationConfig config = ebs::DcPreset(1);
  config.fleet.user_count = 40;
  config.workload.window_steps = 120;

  ebs::PrintBanner(std::cout, "EBST trace store: size, codec throughput, replay-from-disk");
  std::cout << "fleet: " << config.fleet.user_count << " users, window "
            << config.workload.window_steps << " s\n\n";

  const auto generate_start = Clock::now();
  ebs::EbsSimulation sim(config);
  const double generate_ms = MillisSince(generate_start);
  const double records = static_cast<double>(sim.traces().records.size());
  const uint64_t fingerprint = ebs::AggregateFingerprint(sim.traces());

  const std::string dir = "/tmp";
  const std::string csv_path = dir + "/bench_store_traces.csv";
  ebs::WriteTracesCsv(sim.traces(), csv_path);
  const uint64_t csv_bytes = FileBytes(csv_path);
  const uint32_t window_steps = static_cast<uint32_t>(config.workload.window_steps);
  const double dt = config.workload.step_seconds;

  ebs::TablePrinter size_table(
      {"format", "bytes", "bytes/record", "vs CSV", "encode ms", "decode ms"});
  size_table.AddRow({"traces.csv", std::to_string(csv_bytes),
                     ebs::TablePrinter::Fmt(static_cast<double>(csv_bytes) / records, 1),
                     "1.00x", "-", "-"});

  for (const auto precision : {ebs::StorePrecision::kExport, ebs::StorePrecision::kExact}) {
    const bool exact = precision == ebs::StorePrecision::kExact;
    const std::string path = dir + (exact ? "/bench_store.exact.ebst" : "/bench_store.ebst");
    const auto encode_start = Clock::now();
    ebs::WriteDatasetToStore(path, sim.traces(), dt, window_steps,
                             {.precision = precision});
    const double encode_ms = MillisSince(encode_start);
    const auto decode_start = Clock::now();
    const ebs::TraceStoreReader reader(path);
    const ebs::TraceDataset decoded = reader.ReadAll();
    const double decode_ms = MillisSince(decode_start);
    const uint64_t bytes = reader.info().file_bytes;
    size_table.AddRow(
        {exact ? "ebst (exact)" : "ebst (export)", std::to_string(bytes),
         ebs::TablePrinter::Fmt(static_cast<double>(bytes) / records, 1),
         ebs::TablePrinter::Fmt(static_cast<double>(csv_bytes) / static_cast<double>(bytes),
                                2) +
             "x",
         ebs::TablePrinter::Fmt(encode_ms, 1), ebs::TablePrinter::Fmt(decode_ms, 1)});
    if (ebs::AggregateFingerprint(decoded) != fingerprint) {
      std::cerr << "FINGERPRINT MISMATCH after decode\n";
      return 1;
    }
  }
  size_table.Print(std::cout);

  // A replayable store adds the full-scale metrics section (per-QP and
  // per-segment series — a fixed-size product of the fleet, not the record
  // count); the fair CSV baseline for that file is all three exports.
  const std::string export_path = dir + "/bench_store.replay.ebst";
  ebs::WriteWorkloadToStore(export_path, sim.workload(), dt,
                            {.precision = ebs::StorePrecision::kExport});
  const std::string compute_csv = dir + "/bench_store_compute.csv";
  const std::string storage_csv = dir + "/bench_store_storage.csv";
  ebs::WriteComputeMetricsCsv(sim.fleet(), sim.metrics(), compute_csv);
  ebs::WriteStorageMetricsCsv(sim.fleet(), sim.metrics(), storage_csv);
  const uint64_t csv_total = csv_bytes + FileBytes(compute_csv) + FileBytes(storage_csv);
  const uint64_t replay_bytes = FileBytes(export_path);
  std::cout << "replayable store (traces + metrics section): " << replay_bytes
            << " B vs CSV trio " << csv_total << " B = "
            << ebs::TablePrinter::Fmt(
                   static_cast<double>(csv_total) / static_cast<double>(replay_bytes), 2)
            << "x smaller\n\n";

  ebs::TablePrinter replay_table({"pipeline", "wall ms", "events", "speedup"});
  const auto regen_start = Clock::now();
  ebs::StreamingSimulation regen(config, {.worker_threads = 1});
  regen.Run();
  const double regen_ms = MillisSince(regen_start);
  replay_table.AddRow({"regenerate (1T)", ebs::TablePrinter::Fmt(regen_ms, 1),
                       std::to_string(regen.stats().events), "1.00x"});

  const auto replay_start = Clock::now();
  ebs::StreamingSimulation replay(export_path, config);
  replay.Run();
  const double replay_ms = MillisSince(replay_start);
  replay_table.AddRow({"replay from store", ebs::TablePrinter::Fmt(replay_ms, 1),
                       std::to_string(replay.stats().events),
                       ebs::TablePrinter::Fmt(regen_ms / replay_ms, 2) + "x"});
  replay_table.Print(std::cout);

  if (ebs::AggregateFingerprint(replay.traces()) != fingerprint) {
    std::cerr << "FINGERPRINT MISMATCH in replay-from-store\n";
    return 1;
  }
  std::cout << "\nfingerprint 0x" << std::hex << fingerprint << std::dec
            << " identical across generate, decode, and replay-from-store\n"
            << "(batch generation took " << ebs::TablePrinter::Fmt(generate_ms, 1)
            << " ms)\n";
  std::remove(csv_path.c_str());
  std::remove(compute_csv.c_str());
  std::remove(storage_csv.c_str());
  ebs::obs::EmitRunReport(std::cout);
  return 0;
}
