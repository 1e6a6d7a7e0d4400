// Replay engine throughput: sharded generation + k-way merge at 1/2/4/8
// worker threads, with the full online pipeline attached (rollup aggregation
// + trace collection + a throughput probe).
//
// The merged stream and every dataset are bit-identical across rows (the
// determinism tests lock this in), so the only thing that varies with the
// thread count is wall-clock time. Speedup is reported against the 1-thread
// row; on a single-core host the parallel rows cannot beat it — the engine
// still runs the same sharded pipeline, the cores just are not there.

#include <chrono>
#include <iostream>
#include <thread>

#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/obs/report.h"
#include "src/util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main() {
  ebs::obs::InitRunReportFromEnv();
  ebs::SimulationConfig config = ebs::DcPreset(1);

  ebs::PrintBanner(std::cout, "Replay engine: streaming generation throughput");
  std::cout << "fleet: " << config.fleet.user_count << " users, window "
            << config.workload.window_steps << " s, hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";

  ebs::TablePrinter table({"threads", "wall ms", "events", "events/s", "modeled IO/s",
                           "speedup vs 1T"});
  double baseline_ms = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    const auto start = Clock::now();
    ebs::StreamingSimulation sim(config, {.worker_threads = threads});
    sim.Run();
    const double ms = MillisSince(start);
    if (threads == 1) {
      baseline_ms = ms;
    }
    const double events = static_cast<double>(sim.stats().events);
    table.AddRow({std::to_string(threads), ebs::TablePrinter::Fmt(ms, 1),
                  std::to_string(sim.stats().events),
                  ebs::TablePrinter::Fmt(events / (ms / 1000.0), 0),
                  ebs::TablePrinter::Fmt(sim.stats().modeled_ios / (ms / 1000.0), 0),
                  ebs::TablePrinter::Fmt(baseline_ms / ms, 2)});
  }
  table.Print(std::cout);
  ebs::obs::EmitRunReport(std::cout);
  return 0;
}
