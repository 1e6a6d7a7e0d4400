// EBST trace store command line: record a workload to disk, inspect a file,
// convert it to the DiTing-style CSV, or re-drive the replay pipeline from
// it.
//
//   $ ./tools/store_tool record out.ebst [--seed N] [--users N] [--steps N] [--exact]
//   $ ./tools/store_tool inspect out.ebst
//   $ ./tools/store_tool to-csv out.ebst traces.csv
//   $ ./tools/store_tool replay out.ebst [--seed N] [--users N] [--steps N] [--threads N]
//
// `record` writes the store at export precision by default (CSV-exporter
// fidelity, the compact encoding); --exact keeps bit-identical doubles.
// `replay` rebuilds the fleet from the same flags — the store carries no
// topology, so the flags must match the recording run — and reports the
// stream fingerprint, which equals the recording run's for either precision.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/trace/csv_export.h"
#include "src/trace/store.h"
#include "src/util/table.h"

namespace {

struct ToolOptions {
  uint64_t seed = 0;  // 0 = preset default
  uint32_t users = 0;
  uint32_t steps = 0;
  size_t threads = 1;
  bool exact = false;
};

int Usage() {
  std::cerr << "usage: store_tool <record|inspect|to-csv|replay> <file.ebst> [args]\n"
            << "  record <out.ebst> [--seed N] [--users N] [--steps N] [--exact]\n"
            << "  inspect <file.ebst>\n"
            << "  to-csv <file.ebst> <out.csv>\n"
            << "  replay <file.ebst> [--seed N] [--users N] [--steps N] [--threads N]\n";
  return 2;
}

bool ParseFlags(int argc, char** argv, int first, ToolOptions* out) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--exact") {
      out->exact = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const uint64_t value = std::strtoull(argv[++i], nullptr, 10);
    if (flag == "--seed") {
      out->seed = value;
    } else if (flag == "--users") {
      out->users = static_cast<uint32_t>(value);
    } else if (flag == "--steps") {
      out->steps = static_cast<uint32_t>(value);
    } else if (flag == "--threads") {
      out->threads = static_cast<size_t>(value);
    } else {
      return false;
    }
  }
  return true;
}

ebs::SimulationConfig MakeConfig(const ToolOptions& options) {
  ebs::SimulationConfig config = ebs::DcPreset(1);
  if (options.seed != 0) {
    config.fleet.seed = options.seed;
    config.workload.seed = options.seed * 31 + 7;
  }
  if (options.users != 0) {
    config.fleet.user_count = options.users;
  }
  if (options.steps != 0) {
    config.workload.window_steps = options.steps;
  }
  return config;
}

int Record(const std::string& path, const ToolOptions& options) {
  const ebs::SimulationConfig config = MakeConfig(options);
  std::cout << "generating (seed " << config.fleet.seed << ", "
            << config.fleet.user_count << " users, " << config.workload.window_steps
            << " steps)...\n";
  ebs::EbsSimulation sim(config);
  ebs::TraceStoreOptions store_options;
  store_options.precision =
      options.exact ? ebs::StorePrecision::kExact : ebs::StorePrecision::kExport;
  if (!ebs::WriteWorkloadToStore(path, sim.workload(), config.workload.step_seconds,
                                 store_options)) {
    std::cerr << "FAILED to write " << path << "\n";
    return 1;
  }
  const ebs::TraceStoreReader reader(path);
  std::cout << "wrote " << path << ": " << reader.info().record_count << " records in "
            << reader.info().chunk_count << " chunks, " << reader.info().file_bytes
            << " bytes (" << (options.exact ? "exact" : "export") << " precision)\n"
            << "fingerprint: 0x" << std::hex << ebs::AggregateFingerprint(sim.traces())
            << std::dec << "\n";
  return 0;
}

int Inspect(const std::string& path) {
  const ebs::TraceStoreReader reader(path);
  const ebs::TraceStoreInfo& info = reader.info();
  std::cout << "file:        " << path << " (" << info.file_bytes << " bytes)\n"
            << "version:     " << info.version << "\n"
            << "precision:   "
            << (info.precision == ebs::StorePrecision::kExact ? "exact" : "export") << "\n"
            << "records:     " << info.record_count << " in " << info.chunk_count
            << " chunks\n"
            << "window:      " << info.meta.window_steps << " steps x "
            << info.meta.step_seconds << " s, sampling rate " << info.meta.sampling_rate
            << "\n"
            << "metrics:     " << (info.has_metrics ? "present (replayable)" : "absent")
            << "\n";
  const ebs::TraceDataset traces = reader.ReadAll();
  std::cout << "fingerprint: 0x" << std::hex << ebs::AggregateFingerprint(traces)
            << std::dec << "\n";
  if (info.record_count > 0) {
    std::cout << "bytes/record: "
              << static_cast<double>(info.file_bytes) /
                     static_cast<double>(info.record_count)
              << "\n";
  }
  return 0;
}

int ToCsv(const std::string& path, const std::string& csv_path) {
  const ebs::TraceStoreReader reader(path);
  const ebs::TraceDataset traces = reader.ReadAll();
  if (!ebs::WriteTracesCsv(traces, csv_path)) {
    std::cerr << "FAILED to write " << csv_path << "\n";
    return 1;
  }
  std::cout << "wrote " << csv_path << ": " << traces.records.size() << " rows\n";
  return 0;
}

int Replay(const std::string& path, const ToolOptions& options) {
  const ebs::SimulationConfig config = MakeConfig(options);
  ebs::StreamingSimulation sim(path, config, {.worker_threads = options.threads});
  sim.Run();
  std::cout << "replayed " << sim.stats().events << " events from " << path << "\n"
            << "fingerprint: 0x" << std::hex << ebs::AggregateFingerprint(sim.traces())
            << std::dec << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  ToolOptions options;
  try {
    if (command == "record") {
      if (!ParseFlags(argc, argv, 3, &options)) {
        return Usage();
      }
      return Record(path, options);
    }
    if (command == "inspect") {
      return Inspect(path);
    }
    if (command == "to-csv") {
      if (argc < 4) {
        return Usage();
      }
      return ToCsv(path, argv[3]);
    }
    if (command == "replay") {
      if (!ParseFlags(argc, argv, 3, &options)) {
        return Usage();
      }
      return Replay(path, options);
    }
  } catch (const ebs::TraceStoreError& error) {
    std::cerr << "store error: " << error.what() << "\n";
    return 1;
  }
  return Usage();
}
