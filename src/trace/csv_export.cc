#include "src/trace/csv_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

namespace ebs {

namespace {

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) {
      // Best-effort cleanup on early-exit paths only; the success path goes
      // through CloseChecked, which releases before this deleter can run.
      std::fclose(file);  // ebs-lint: allow(unchecked-fclose) error-path cleanup, export already failed
    }
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File Open(const std::string& path) { return File(std::fopen(path.c_str(), "w")); }

// Closes the stream and reports whether every buffered byte reached the OS.
// ferror catches mid-run fputs/fprintf failures; the fclose result catches
// data lost in the final flush (e.g. disk full) — trusting either alone
// turns a failed export into a silently truncated file.
bool CloseChecked(File file) {
  std::FILE* raw = file.release();
  const bool wrote_ok = std::ferror(raw) == 0;
  const bool closed_ok = std::fclose(raw) == 0;
  return wrote_ok && closed_ok;
}

// A (step, series) row is idle — and skippable in the sparse dumps — only if
// *all four* counters are zero. Ops can be nonzero while bytes are zero
// (zero-length IOs, byte counters rounded away), and dropping such rows
// would silently lose operations from the exported dataset.
bool IdleAt(const RwSeries& series, size_t t) {
  return series.read_bytes[t] <= 0.0 && series.write_bytes[t] <= 0.0 &&
         series.read_ops[t] <= 0.0 && series.write_ops[t] <= 0.0;
}

}  // namespace

bool WriteTracesCsv(const TraceDataset& traces, const std::string& path) {
  File file = Open(path);
  if (!file) {
    return false;
  }
  std::fputs(
      "timestamp,op,size,offset,user,vm,vd,qp,wt,cn,segment,bs,sn,"
      "lat_cn_us,lat_fe_us,lat_bs_us,lat_be_us,lat_cs_us\n",
      file.get());
  for (const TraceRecord& r : traces.records) {
    std::fprintf(file.get(),
                 "%.6f,%c,%u,%" PRIu64 ",%u,%u,%u,%u,%u,%u,%u,%u,%u,"
                 "%.2f,%.2f,%.2f,%.2f,%.2f\n",
                 r.timestamp, r.op == OpType::kRead ? 'R' : 'W', r.size_bytes, r.offset,
                 r.user.value(), r.vm.value(), r.vd.value(), r.qp.value(), r.wt.value(),
                 r.cn.value(), r.segment.value(), r.bs.value(), r.sn.value(),
                 r.latency.component_us[0], r.latency.component_us[1],
                 r.latency.component_us[2], r.latency.component_us[3],
                 r.latency.component_us[4]);
  }
  return CloseChecked(std::move(file));
}

bool WriteComputeMetricsCsv(const Fleet& fleet, const MetricDataset& metrics,
                            const std::string& path) {
  File file = Open(path);
  if (!file) {
    return false;
  }
  std::fputs("step,user,vm,vd,wt,qp,read_bytes,write_bytes,read_ops,write_ops\n",
             file.get());
  for (const Qp& qp : fleet.qps) {
    const RwSeries& series = metrics.qp_series[qp.id.value()];
    const UserId user = fleet.vms[qp.vm.value()].user;
    for (size_t t = 0; t < metrics.window_steps; ++t) {
      if (IdleAt(series, t)) {
        continue;  // sparse dump: idle rows carry no information
      }
      std::fprintf(file.get(), "%zu,%u,%u,%u,%u,%u,%.0f,%.0f,%.1f,%.1f\n", t, user.value(),
                   qp.vm.value(), qp.vd.value(), qp.bound_wt.value(), qp.id.value(),
                   series.read_bytes[t], series.write_bytes[t], series.read_ops[t],
                   series.write_ops[t]);
    }
  }
  return CloseChecked(std::move(file));
}

bool WriteStorageMetricsCsv(const Fleet& fleet, const MetricDataset& metrics,
                            const std::string& path) {
  File file = Open(path);
  if (!file) {
    return false;
  }
  std::fputs("step,user,vm,vd,segment,bs,sn,read_bytes,write_bytes,read_ops,write_ops\n",
             file.get());
  // Emit rows in ascending segment-id order (SegmentSeriesMap's only
  // iteration order): the exported file is a fingerprintable product, whatever
  // the map's population history.
  metrics.segment_series.ForEachSorted([&](uint32_t seg_value, const RwSeries& series) {
    const Segment& segment = fleet.segments[seg_value];
    const Vd& vd = fleet.vds[segment.vd.value()];
    const StorageNodeId sn = fleet.block_servers[segment.server.value()].node;
    for (size_t t = 0; t < metrics.window_steps; ++t) {
      if (IdleAt(series, t)) {
        continue;
      }
      std::fprintf(file.get(), "%zu,%u,%u,%u,%u,%u,%u,%.0f,%.0f,%.1f,%.1f\n", t,
                   vd.user.value(), vd.vm.value(), vd.id.value(), seg_value,
                   segment.server.value(), sn.value(), series.read_bytes[t],
                   series.write_bytes[t], series.read_ops[t], series.write_ops[t]);
    }
  });
  return CloseChecked(std::move(file));
}

}  // namespace ebs
