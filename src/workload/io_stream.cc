#include "src/workload/io_stream.h"

#include <algorithm>
#include <cmath>

#include "src/workload/app_profile.h"
#include "src/workload/spatial.h"
#include "src/workload/temporal.h"

namespace ebs {

std::vector<TraceRecord> GenerateFullRateStream(const Fleet& fleet, VdId vd_id,
                                                const IoStreamConfig& config) {
  std::vector<TraceRecord> stream;
  const Vd& vd = fleet.vds[vd_id.value()];
  const AppProfile& profile = GetAppProfile(fleet.vms[vd.vm.value()].app);
  Rng rng(config.seed);

  const double window_seconds =
      static_cast<double>(config.window_steps) * config.step_seconds;
  const double read_bps = config.read_rate_mbps * 1e6;
  const double write_bps = config.write_rate_mbps * 1e6;

  VdSpatialModel spatial(vd, profile, read_bps * window_seconds,
                         write_bps * window_seconds, rng);
  const RateProcessGenerator temporal({config.window_steps, config.step_seconds});
  const TimeSeries read_series =
      temporal.Generate(OpType::kRead, read_bps, vd.throughput_cap_mbps * 1e6, profile, rng);
  const TimeSeries write_series =
      temporal.Generate(OpType::kWrite, write_bps, 0.0, profile, rng);

  const double read_io = profile.read_io_kib_median * 1024.0;
  const double write_io = profile.write_io_kib_median * 1024.0;

  for (size_t t = 0; t < config.window_steps && stream.size() < config.max_ios; ++t) {
    for (const OpType op : {OpType::kRead, OpType::kWrite}) {
      const double bytes =
          (op == OpType::kRead ? read_series[t] : write_series[t]) * config.step_seconds;
      const double io_size = op == OpType::kRead ? read_io : write_io;
      const uint64_t count = static_cast<uint64_t>(bytes / io_size);
      for (uint64_t i = 0; i < count && stream.size() < config.max_ios; ++i) {
        TraceRecord r;
        r.timestamp = (static_cast<double>(t) +
                       static_cast<double>(i) / std::max(1.0, static_cast<double>(count))) *
                      config.step_seconds;
        r.op = op;
        const uint32_t size =
            static_cast<uint32_t>(std::max<double>(kPageBytes, io_size));
        r.size_bytes = size - size % static_cast<uint32_t>(kPageBytes);
        r.offset = spatial.SampleOffset(op, r.size_bytes, rng);
        r.vd = vd.id;
        r.vm = vd.vm;
        r.user = vd.user;
        r.segment = fleet.SegmentForOffset(vd.id, r.offset);
        r.bs = fleet.segments[r.segment.value()].server;
        stream.push_back(r);
      }
    }
  }
  // Stable: a step's first read and first write share a timestamp, and they
  // keep their emission order (reads first) instead of std::sort's
  // unspecified tie order.
  std::stable_sort(stream.begin(), stream.end(), [](const TraceRecord& a, const TraceRecord& b) {
    return a.timestamp < b.timestamp;
  });
  return stream;
}

}  // namespace ebs
