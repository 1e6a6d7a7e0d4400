#include "src/core/sink_drive.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace ebs {

void DriveSinksOverResult(const Fleet& fleet, const WorkloadResult& result,
                          size_t window_steps, double step_seconds,
                          const std::vector<ReplaySink*>& sinks) {
  const std::vector<TraceRecord>& records = result.traces.records;
  if (!std::is_sorted(records.begin(), records.end(), TraceRecordBefore)) {
    throw std::invalid_argument("sink drive: trace records are not in canonical order");
  }

  for (ReplaySink* sink : sinks) {
    sink->OnStart(fleet, window_steps, step_seconds);
  }

  std::vector<uint64_t> vd_sequence(fleet.vds.size(), 0);
  size_t cursor = 0;
  for (size_t t = 0; t < window_steps; ++t) {
    const double step_end = static_cast<double>(t + 1) * step_seconds;
    while (cursor < records.size()) {
      const TraceRecord& record = records[cursor];
      // Timestamps never cross step boundaries in generation; the final step
      // also absorbs any boundary-exact tail.
      if (record.timestamp >= step_end && t + 1 < window_steps) {
        break;
      }
      const ReplayEvent event{record, static_cast<uint32_t>(t), 0,
                              vd_sequence[record.vd.value()]++};
      for (ReplaySink* sink : sinks) {
        sink->OnEvent(event);
      }
      ++cursor;
    }
    const ReplayStepView view{t, step_seconds, result.metrics.qp_series, result.offered_vd,
                              result.metrics.segment_series};
    for (ReplaySink* sink : sinks) {
      sink->OnStepComplete(view);
    }
  }

  for (ReplaySink* sink : sinks) {
    sink->OnFinish();
  }
}

}  // namespace ebs
